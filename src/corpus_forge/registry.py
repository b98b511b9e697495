"""Data-category registry and granularity extraction.

Granularity — the set of data-category ids an annotation level
instantiates — is the basis of version classification.  The registry
maps the concrete vocabulary found in payloads (attribute keys, element
names, link types) onto stable category ids and records broader/narrower
relations between categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import RegistryError
from .formats import Items


@dataclass(frozen=True)
class DataCategory:
    id: str
    name: str
    broader: str | None
    aliases: tuple[str, ...]


class Registry:
    """Immutable lookup table of data categories."""

    def __init__(self, categories: list[DataCategory]):
        self._categories: dict[str, DataCategory] = {}
        self._aliases: dict[str, str] = {}
        for cat in categories:
            if cat.id in self._categories:
                raise RegistryError(f"duplicate category id {cat.id!r}")
            self._categories[cat.id] = cat
        for cat in categories:
            if cat.broader is not None and cat.broader not in self._categories:
                raise RegistryError(
                    f"category {cat.id!r} names unknown broader "
                    f"category {cat.broader!r}")
            for alias in cat.aliases:
                if alias in self._categories:
                    raise RegistryError(
                        f"alias {alias!r} of {cat.id!r} shadows a category id")
                if alias in self._aliases:
                    raise RegistryError(
                        f"alias {alias!r} claimed by both "
                        f"{self._aliases[alias]!r} and {cat.id!r}")
                self._aliases[alias] = cat.id
        # Each category's broader chain, walked once.
        self._ancestors: dict[str, frozenset[str]] = {}
        for cat in categories:
            seen = {cat.id}
            cursor = cat.broader
            while cursor is not None:
                if cursor in seen:
                    raise RegistryError(
                        f"broader chain of {cat.id!r} forms a cycle")
                seen.add(cursor)
                cursor = self._categories[cursor].broader
            self._ancestors[cat.id] = frozenset(seen - {cat.id})

    @classmethod
    def from_text(cls, text: str) -> "Registry":
        categories = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise RegistryError(
                    f"line {lineno}: expected 4 tab-separated columns, "
                    f"got {len(cols)}")
            cid, name, broader, aliases = (c.strip() for c in cols)
            if not cid or not name:
                raise RegistryError(f"line {lineno}: empty id or name")
            categories.append(DataCategory(
                id=cid,
                name=name,
                broader=None if broader in ("-", "") else broader,
                aliases=tuple(a.strip() for a in aliases.split(",")
                              if a.strip() and a.strip() != "-")))
        return cls(categories)

    @classmethod
    def default(cls) -> "Registry":
        global _DEFAULT
        if _DEFAULT is None:
            text = (resources.files("corpus_forge") / "data" / "registry.tsv"
                    ).read_text(encoding="utf-8")
            _DEFAULT = cls.from_text(text)
        return _DEFAULT

    def category(self, category_id: str) -> DataCategory:
        if category_id not in self._categories:
            raise RegistryError(f"unknown category id {category_id!r}")
        return self._categories[category_id]

    def lookup(self, term: str) -> str | None:
        """Resolve a payload term (key, element name, link type) to a
        category id; unknown terms resolve to None."""
        if term in self._categories:
            return term
        return self._aliases.get(term)

    def ancestors(self, category_id: str) -> frozenset[str]:
        self.category(category_id)  # raises for an unknown id
        return self._ancestors[category_id]

    def closure(self, categories: frozenset[str]) -> frozenset[str]:
        """Upward closure: the categories plus all their broader ancestors.

        Provisional (``x-`` prefixed) categories have no registry entry
        and close onto themselves.
        """
        out = set(categories)
        for cid in categories:
            if cid in self._categories:
                out |= self.ancestors(cid)
        return frozenset(out)


_DEFAULT: Registry | None = None


SEGMENTATION_GRANULARITY = frozenset({"reference-unit"})


def granularity_of(items: Items) -> frozenset[str]:
    """Extract the data-category set that annotation items instantiate.

    Category keys and link types resolve through the registry; unknown
    ones become provisional ``x-`` categories, so that otherwise
    identical payloads still compare equal.  Element names resolve
    too but stay silent when unknown — tag vocabulary is format
    carpentry, not annotation content.  Sub-values of colon-joined
    attribute values probe compound aliases (``msd:s``) and only count
    when registered.  It reads the columns of every row of ``items``.
    """
    # The distinct terms first, then each resolved once: a level's items
    # repeat a handful of keys and values, and equal categories of one
    # payload are one mapping.
    mappings = {id(c): c for c in items.column("categories")}.values()
    pairs = {pair for categories in mappings for pair in categories.items()
             if pair[1]}
    compounds = {f"{key}:{sub}" for key, value in pairs if ":" in value
                 for sub in value.split(":")[1:]}
    registry = Registry.default()
    categories = {registry.lookup(term) for term
                  in {*items.column("element"), *compounds}}
    categories.discard(None)
    categories.update(
        registry.lookup(term) or f"x-{term}" for term
        in {key for key, _ in pairs}
        | {link.type for links in set(items.column("links"))
           for link in links})
    return frozenset(categories)
