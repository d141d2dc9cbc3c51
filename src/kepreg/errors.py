"""The base class of kepreg's computation failures.

A ``KepregError`` is a failure inside a computation: an integration
(``flow.FlowError``), a shooting solve (``shooting.ShootingError``) or
an averaging self-check (``averaging.AveragingError``).  Invalid input
raises ``ValueError`` instead.  ``cli.main`` turns any ``KepregError``
into exit code 2 with ``<command>_diagnostics.json``.
"""

__all__ = ["KepregError"]


class KepregError(RuntimeError):
    """A computation failed; subclasses carry what it reached."""
