"""Options controlling the plan-compiler pass pipeline.

``CompileOptions`` feeds the auto-sizing model.  Compiled mode itself
(static send schedules serviced through engine ``Segment`` cursors) is
bit-identity preserving: it only changes *how* the simulator executes
the plan, never which virtual-time events occur.  ``auto_alpha`` is the
exception — it rewrites the plan's group sizes from the machine model,
which legitimately changes the simulated run — so it is opt-in and
never enabled by the plain ``compile=True`` switch threading through
:func:`repro.simmpi.launcher.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union


@dataclass(frozen=True)
class CompileOptions:
    """The auto-sizing model inputs.

    Parameters
    ----------
    auto_alpha:
        Re-size the plan's groups from the Eq. 2 balance point
        (:func:`repro.core.model.optimal_alpha`) using per-stage
        ``work=`` hints and the machine's noise model.  Changes
        virtual-time results by design.
    volume:
        Total streamed bytes D (auto_alpha refinement input).
    granularity:
        Stream element size S in bytes; with ``beta`` (or the default
        :class:`~repro.core.model.BetaModel`) it scales the helper-side
        work by the pipelining efficiency beta(S).
    beta:
        ``beta(S)`` callable overriding the default BetaModel.
    """

    auto_alpha: bool = False
    volume: Optional[float] = None
    granularity: Optional[float] = None
    beta: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("volume", "granularity"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


#: the plain ``compile=True`` configuration (one shared object)
DEFAULT_OPTIONS = CompileOptions()


def resolve_options(compile: Union[None, bool, dict, CompileOptions]
                    ) -> Optional[CompileOptions]:
    """Normalize a ``compile=`` argument: None/False -> None (compiled
    mode off), True -> the defaults, a dict -> ``CompileOptions(**d)``."""
    if compile is None or compile is False:
        return None
    if compile is True:
        return DEFAULT_OPTIONS
    if isinstance(compile, CompileOptions):
        return compile
    if isinstance(compile, dict):
        try:
            return CompileOptions(**compile)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad compile options: {exc}") from exc
    raise ValueError(
        f"compile must be a bool, dict or CompileOptions, "
        f"got {type(compile).__name__}")
