"""Ordered cost monoids.

Two monoids are provided:

* ``SEQ_NAT`` -- plain natural-number step counting.  Costs are ``int``,
  combined by ``+`` and ordered by the usual ``<=``.
* ``WORK_SPAN`` -- parallel cost accounting.  Costs are ``(work, span)``
  pairs of naturals.  Sequential combination adds componentwise; the
  extra parallel combination ``par`` adds work and takes the maximum of
  the spans.  The order is componentwise.

Costs are deliberately kept as bare ``int`` / ``tuple`` values so they can
live inside frozensets and dict keys without wrapper overhead.
"""

from __future__ import annotations

from .records import record


@record
class CostMonoid:
    name: str

    @property
    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        """Sequential combination.  It must be injective in each
        argument, ``add(c, a) == add(c, b)`` only when ``a == b``, as it is
        in both monoids here: charging one cost to every key of a
        distribution then merges no two keys."""
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def scale(self, n: int):
        """n unit steps, combined sequentially."""
        raise NotImplementedError

    def par(self, a, b):
        raise NotImplementedError

    def is_valid(self, c) -> bool:
        raise NotImplementedError

    def show(self, c) -> str:
        raise NotImplementedError


@record
class _SeqNat(CostMonoid):
    @property
    def zero(self):
        return 0

    def add(self, a, b):
        return a + b

    def leq(self, a, b):
        return a <= b

    def scale(self, n):
        return n

    def par(self, a, b):
        raise ValueError("sequential cost monoid has no parallel combination")

    def is_valid(self, c):
        return isinstance(c, int) and not isinstance(c, bool) and c >= 0

    def show(self, c):
        return str(c)


@record
class _WorkSpan(CostMonoid):
    @property
    def zero(self):
        return (0, 0)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def leq(self, a, b):
        return a[0] <= b[0] and a[1] <= b[1]

    def scale(self, n):
        # one unit step costs (1, 1)
        return (n, n)

    def par(self, a, b):
        return (a[0] + b[0], max(a[1], b[1]))

    def is_valid(self, c):
        return (
            isinstance(c, tuple)
            and len(c) == 2
            and all(isinstance(x, int) and x >= 0 for x in c)
        )

    def show(self, c):
        return f"({c[0]} {c[1]})"


SEQ_NAT = _SeqNat("seq")
WORK_SPAN = _WorkSpan("par")

MONOIDS = {"seq": SEQ_NAT, "par": WORK_SPAN}


def cost_to_json(c):
    return list(c) if isinstance(c, tuple) else c
