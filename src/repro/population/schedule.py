"""The order in which an SSet plays its opponents (paper §IV-A, §V-A).

Every generation each SSet must play every opponent strategy in the
population.  The paper splits that work over the SSet's agents: with *s*
SSets and *a* agents per SSet, "each agent is assigned s/a opposing SSets to
play against", and each agent works out its share purely from its own index
— no communication ("we are able to leverage the system size and processor
rank data to allow each node to calculate its position within an SSet and
its subsequent opponent strategies individually").

:func:`opponent_rows` is that arithmetic's one definition: opponents are
listed in ascending SSet order (the SSet itself last, when it plays itself),
computed from ``(n_ssets, sset, include_self)`` alone.  How the list is
dealt to agents changes no fitness, so only the order is kept here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["opponent_rows"]


def opponent_rows(n_ssets: int, ssets: np.ndarray, include_self: bool) -> np.ndarray:
    """Row ``i``: the opponents of ``ssets[i]``, in the order their games are played.

    Every other SSet in ascending order, then (``include_self``) the SSet
    itself, last.  The order decides which game gets which draws of a
    slate's stream, so every place that plays a slate — the fitness
    evaluator and the eager workers — builds it here.
    """
    own = np.asarray(ssets, dtype=np.intp).reshape(-1, 1)
    others = np.arange(n_ssets - 1, dtype=np.intp)
    rows = others + (others >= own)
    return np.hstack([rows, own]) if include_self else rows
