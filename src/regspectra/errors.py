"""Exception types shared across the package, one per kind of failure; the
command line maps `UnsupportedSizeError` to exit code 3, any other
`ValueError` to 2 and `ConsistencyError` to 1."""


class UnsupportedSizeError(ValueError):
    """An input exceeds a size cap: a clique, Ramsey, search or canonical
    labelling cap, or the int64 range of an exact spectrum check."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug or a violated hypothesis."""
