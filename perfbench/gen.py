"""Seeded inputs for the benchmark workloads.

Every payload is built from the vocabulary of ``tests/fixtures`` (read,
never written): the forms of the Père Goriot segmentation with their
lemma and morphosyntactic tag from the stand-off morphology, and a fine
tag from the tabular morphology where that form has one.  Only forms that
re-segment to themselves and need no escaping are kept, so a text made
by joining them with spaces segments back into exactly those forms and
every generated inline payload aligns.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from corpus_forge.standoff import segment_text

_WORD_RE = re.compile(r'<word id="(word_\d+)">([^<]*)</word>')
_MORPHO_RE = re.compile(
    r'<w span="(word_\d+)"\s+msd="([^"]*)"\s+lemma="([^"]*)"\s*/>')
_UNSAFE = set('&<>"')


@dataclass(frozen=True)
class Entry:
    form: str
    lemma: str
    msd: str
    fine: str


def load_vocabulary(fixtures: Path) -> list[Entry]:
    """Distinct (form, lemma, msd) entries usable in generated payloads."""
    forms = dict(_WORD_RE.findall(
        (fixtures / "goriot_segmentation_full.xml").read_text("utf-8")))
    morpho = {span: (msd, lemma) for span, msd, lemma in _MORPHO_RE.findall(
        (fixtures / "goriot_standoff_morpho_full.xml").read_text("utf-8"))}
    fine: dict[str, str] = {}
    for row in (fixtures / "fig04_tabular_morpho.tsv").read_text(
            "utf-8").splitlines():
        cols = row.split("\t")
        if len(cols) == 5:
            fine.setdefault(cols[1], cols[4])
    entries: dict[tuple[str, str, str], Entry] = {}
    for span, form in forms.items():
        if span not in morpho or _UNSAFE & set(form):
            continue
        if [u.form for u in segment_text(form)] != [form]:
            continue
        msd, lemma = morpho[span]
        if _UNSAFE & set(msd + lemma):
            continue
        tag = fine.get(form) or (msd.split(":")[0].strip() or "Y")
        entries.setdefault((form, lemma, msd), Entry(form, lemma, msd, tag))
    if len(entries) < 20:
        raise ValueError(f"fixture vocabulary too small: {len(entries)} forms")
    return sorted(entries.values(), key=lambda e: (e.form, e.lemma, e.msd))


def tokens(rng: random.Random, vocab: list[Entry], n: int) -> list[Entry]:
    return [rng.choice(vocab) for _ in range(n)]


def text_of(toks: list[Entry]) -> list[str]:
    """The reference-unit forms a payload over ``toks`` must reconstruct."""
    return [t.form for t in toks]


def segmentation(toks: list[Entry]) -> str:
    return "\n".join(f'<word id="word_{i}">{t.form}</word>'
                     for i, t in enumerate(toks, 1))


def standoff_morpho(toks: list[Entry], fine: bool = False) -> str:
    """One ``<w/>`` per unit; ``fine`` adds a fine tag, a finer granularity."""
    lines = []
    for i, t in enumerate(toks, 1):
        line = f'<w span="word_{i}"\tmsd="{t.msd}"\tlemma="{t.lemma}"'
        if fine:
            line += f'\ttag_fine="{t.fine}"'
        lines.append(line + "/>")
    return "\n".join(lines)


def _runs(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    sizes = []
    while n > 0:
        size = min(n, rng.randint(low, high))
        sizes.append(size)
        n -= size
    return sizes


def structural(rng: random.Random, toks: list[Entry]) -> str:
    """A full-coverage tree: paragraphs of sentence segments."""
    forms = text_of(toks)
    paragraphs, pos = [], 0
    for p_size in _runs(rng, len(forms), 40, 120):
        segs = []
        for s_size in _runs(rng, p_size, 6, 24):
            segs.append("<seg>" + " ".join(forms[pos:pos + s_size]) + "</seg>")
            pos += s_size
        paragraphs.append("<p>" + " ".join(segs) + "</p>")
    return "\n".join(paragraphs)


def inline_coref(rng: random.Random, toks: list[Entry],
                 share: float = 0.1) -> str:
    """Running text with markables over about ``share`` of the tokens.

    Markables cover one to three whole tokens, each inside its own slot
    of four, so they never overlap.  There are at least two, and every
    second one links back to an earlier markable, so the payload always
    instantiates both the markable and the identity-link categories.
    """
    forms = text_of(toks)
    slots = len(forms) // 4
    if slots < 2:
        raise ValueError("corpus too short for a linked markable")
    count = min(slots, max(2, round(len(forms) * share / 2)))
    starts = {4 * slot: rng.randint(1, 3)
              for slot in rng.sample(range(slots), count)}
    out: list[str] = []
    ids: list[str] = []
    i = 0
    while i < len(forms):
        size = starts.get(i)
        if size is None:
            out.append(forms[i])
            i += 1
            continue
        mid = f"m{len(ids) + 1}"
        attrs = f'id="{mid}"'
        if len(ids) % 2 == 1:
            attrs += f' type="ident" ref="{rng.choice(ids)}"'
        out.append(f"<coref {attrs}>" + " ".join(forms[i:i + size])
                   + "</coref>")
        ids.append(mid)
        i += size
    return " ".join(out)


def corpus_table(titles: list[str], words: int, kinds: str) -> str:
    return "".join(f"{title}\t{words}\tbenchmark\t{kinds}\n"
                   for title in titles)
