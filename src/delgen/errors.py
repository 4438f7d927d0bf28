"""Exception taxonomy shared by the library and the command line tool.

The command line tool maps these onto its documented exit codes:
I/O failures -> 2, parse failures -> 3, precondition failures -> 4,
failed checks -> 5.
"""


class DelgenError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DelgenError):
    """Input file or inline specification could not be parsed."""


class PreconditionError(DelgenError):
    """An operation was invoked outside its documented domain."""


class CheckFailedError(DelgenError):
    """A certified check ran to completion and failed."""


class DegenerateSimplexError(PreconditionError):
    """Operation requires a non-degenerate simplex."""


class NonGenericError(CheckFailedError):
    """A certification ran on data whose protection audit came back zero."""


class MappingError(PreconditionError):
    """A vertex mapping is not a bijection on the required domain."""


class PathMismatchError(CheckFailedError):
    """Two supposedly equivalent computation routes disagreed."""
