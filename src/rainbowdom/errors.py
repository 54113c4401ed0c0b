"""Exception hierarchy shared by the whole package.

Each class carries the exit code the CLI returns for it, so the mapping is
stated once, here: 1 for any package error not below (an internal check
that failed), 2 for unparseable input and unwritable output files, 3 for
size caps and truncated enumerations, 4 for exhausted search budgets, 5 for
violated preconditions, each raised as PreconditionError itself.
"""


class RainbowDomError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(RainbowDomError):
    """Malformed external input: graph6 text, edge-list text, labeling text,
    an input file that cannot be read, or an output file that cannot be
    written."""

    exit_code = 2


class CapacityError(RainbowDomError):
    """An input exceeds a hard size cap (solver vertex cap, enumeration cap)."""

    exit_code = 3


class BudgetError(RainbowDomError):
    """A search exhausted its branch-node budget before finishing. level,
    when set, is the cost level an iterative deepening was refuting: every
    lower one was refuted, so it is a lower bound on that search's optimum."""

    exit_code = 4
    level: int | None = None


class CapExceededError(RainbowDomError):
    """An enumeration was truncated at its cap; results seen so far are partial."""

    exit_code = 3


class PreconditionError(RainbowDomError, ValueError):
    """An argument violates a documented precondition."""

    exit_code = 5
