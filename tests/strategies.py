"""Hypothesis strategies for values the API accepts.

Text is any string that UTF-8 can encode (``manifest.storable_text``
refuses a lone surrogate, which no UTF-8 file can hold), with the
characters that end or split a line, the escape character and the
separators the manifest uses drawn more often.  A value is left out
only where the API refuses it, and the strategy names the check.
"""

from importlib import resources

from hypothesis import strategies as st

from corpus_forge.errors import StoreError
from corpus_forge.manifest import storable_meta

AWKWARD = "\\\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 -:|,"

texts = st.just("-") | st.text(
    st.characters(codec="utf-8") | st.sampled_from(AWKWARD), max_size=10)


def _storable(key: str) -> bool:
    try:
        storable_meta({key: ""})
    except StoreError:
        return False
    return True


# manifest.storable_meta refuses a key with a line break or ": ".
meta_keys = texts.filter(_storable)
metas = st.dictionaries(meta_keys, texts, max_size=3)
# Archive.register_corpus refuses a blank title (EmptyTitleError).
titles = texts.filter(str.strip)
# Archive.add_level refuses a kind with whitespace, ',' or '|'.
kinds = st.text(st.characters(codec="utf-8") | st.sampled_from("-\\:"),
                min_size=1, max_size=10).map(str.strip).filter(
    lambda k: k and not any(c.isspace() or c in ",|" for c in k))

# The category ids the packaged registry (data/registry.tsv) defines.
REGISTRY_IDS = [
    line.split("\t")[0] for line in (
        resources.files("corpus_forge") / "data" / "registry.tsv"
    ).read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#")]
category_ids = st.sampled_from(REGISTRY_IDS)
