"""corpus-forge: archive engine for multi-level annotated corpora.

A corpus is identified by its linguistic coverage — the token stream of
the text itself — not by any one file that happens to carry it.
Description levels (segmentation, structure, morphosyntax, syntax,
reference) decompose what is said about a corpus; resources are the
files that materialize those levels.  Stand-off levels point at
reference units instead of repeating text, and the engine reconstructs
their coverage transitively through the dependency graph.  Successive
deposits of the same level kind form version chains classified by
granularity comparison over a data-category registry.
"""

from .archive import Archive, DepositResult, LevelSpec
from .errors import CorpusForgeError

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "CorpusForgeError",
    "DepositResult",
    "LevelSpec",
]
