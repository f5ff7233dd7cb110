"""Exception types shared across the package, and the accessor that reads
upstream artifact documents."""


class KernelcastError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KernelcastError, ValueError):
    """Input data violates a documented precondition."""


class CapacityError(KernelcastError):
    """A requested feature space or table exceeds representable capacity."""


class ConditioningError(KernelcastError):
    """A linear solve failed even after diagonal jitter escalation."""


class SimulationError(KernelcastError):
    """A numerical integrator failed to produce the requested trajectory."""


class NormBoundError(InvalidInputError):
    """A sample violates the norm bound required by the Volterra kernel.

    Attributes
    ----------
    position : int or None
        Index of the offending sample within the sequence being processed,
        when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GridSearchError(KernelcastError):
    """Every hyperparameter candidate failed during cross-validation."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ConfigError(KernelcastError):
    """An experiment configuration is malformed.

    ``field`` holds a dotted path such as ``dataset.kind`` when available.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class DependencyError(ConfigError):
    """A pipeline stage is missing an upstream artifact or hashes disagree."""


class MissingKeyError(DependencyError, InvalidInputError):
    """An artifact document lacks a required key.

    It is a :class:`DependencyError` to the pipeline stages (exit 2) and an
    :class:`InvalidInputError` to code that loads documents directly.
    """


class ParseError(InvalidInputError):
    """A CSV file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def doc_field(doc: dict, key: str, source: str, path: str = ""):
    """Value at the dotted ``key`` of an artifact document.

    ``source`` names the artifact (its file) and ``path`` the dotted
    location of ``doc`` inside it; a missing key raises
    :class:`MissingKeyError` naming both, down to the first part missing.
    """
    node = doc
    parts = path.split(".") if path else []
    for part in key.split("."):
        parts.append(part)
        if not isinstance(node, dict) or part not in node:
            raise MissingKeyError(f"{source} has no key {'.'.join(parts)!r}")
        node = node[part]
    return node
