"""Exception hierarchy for the archive engine.

Every error carries a short machine-readable ``code`` so the CLI can map
domain failures onto exit status 1 with a stable one-line message.
"""

from __future__ import annotations


class CorpusForgeError(Exception):
    """Base class for all domain errors.

    ``line``, when known, is the 1-based input line the error is about;
    the message then starts with it.
    """

    code = "error"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = None
        if line is not None:
            self.name_line(line)

    def name_line(self, line: int) -> None:
        """Name ``line`` as the one the error is about, unless it names a
        line already: a codec names the line of the tag it was reading
        when an error rose."""
        if self.line is None:
            self.line = line
            self.message = f"line {line}: {self.message}"
            self.args = (self.message,)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class UnknownEntityError(CorpusForgeError):
    """A corpus, level or resource id does not exist in the archive."""

    code = "unknown-entity"


class EmptyTitleError(CorpusForgeError):
    code = "empty-title"


class DependencyCycleError(CorpusForgeError):
    code = "cycle"


class UnknownDependencyError(CorpusForgeError):
    code = "unknown-dependency"


class DanglingPointerError(CorpusForgeError):
    """A span expression references a unit id absent from its anchor."""

    code = "dangling-pointer"

    def __init__(self, unit_id: str):
        super().__init__(f"unknown reference unit {unit_id!r}")
        self.unit_id = unit_id


class SpanSyntaxError(CorpusForgeError):
    code = "span-syntax"


class ReversedRangeError(CorpusForgeError):
    """Range whose start unit follows its end unit in document order."""

    code = "range-reversed"


class NoPrimaryAnchorError(CorpusForgeError):
    """Dependency chain reaches no segmentation holding reference units."""

    code = "no-primary-anchor"

    def __init__(self, message: str = "dependency chain reaches no "
                 "segmentation holding reference units"):
        super().__init__(message)


class NoLevelError(CorpusForgeError):
    """Resource deposited with an empty level list."""

    code = "no-level"


class ParseError(CorpusForgeError):
    code = "parse-error"

class MisalignmentError(CorpusForgeError):
    """An inline element boundary falls strictly inside a reference unit."""

    code = "misalignment"

    def __init__(self, element: str, offset: int):
        super().__init__(f"element {element!r} boundary at offset {offset} "
                         "falls inside a reference unit")
        self.element = element
        self.offset = offset


class TextMismatchError(CorpusForgeError):
    """Inline document text does not match the segmentation coverage."""

    code = "text-mismatch"

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class MissingSpanError(CorpusForgeError):
    """A stand-off item lacks the span attribute anchoring it."""

    code = "missing-span"


class UnknownTargetError(CorpusForgeError):
    """A link references an item id never declared on the level."""

    code = "unknown-target"

    def __init__(self, target: str):
        super().__init__(f"link target {target!r} is not declared")
        self.target = target


class NestingError(CorpusForgeError):
    """Constituent depth increases by more than one step at a time."""

    code = "nesting"

class RegistryError(CorpusForgeError):
    code = "registry-error"


class StoreError(CorpusForgeError):
    """Archive directory layout or manifest is unreadable."""

    code = "store-error"


class PayloadDigestError(StoreError):
    """A stored payload's SHA-256 is not the one recorded at deposit."""

    code = "payload-digest-mismatch"
