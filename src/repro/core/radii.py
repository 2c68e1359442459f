"""Radius constants of the paper's algorithms (``m_3.2``, ``m_3.3``, ``m_4.2``).

Algorithm 1 takes all vertices of ``m_3.2(C_t)``-local 1-cuts and all
``m_3.3(C_t)``-interesting vertices of ``m_3.3(C_t)``-local 2-cuts.  The
paper instantiates (Section 4, discussion after Lemma 4.2):

* ``m_3.2(C_t) = f(5) + 2``   (proof of Lemma 3.2),
* ``m_3.3(C_t) = f(11) + 5``  (proof of Lemma 3.3, Claim 5.13),
* running time ``3·max{f(5)+2, f(11)+5} + g(t) + 3`` with ``g`` the
  linear function of Ding [8, Lemma 6.3],

with control function ``f(r) = (5r + 18)·t`` for ``K_{2,t}``-minor-free
graphs ([3, Lemma 7.1]) — so the radii are ``43t + 2`` and ``73t + 5``:
astronomically conservative on simulation-scale graphs (any graph of
diameter below the radius degenerates to "gather all, brute force").

A :class:`RadiusPolicy` therefore carries explicit radii with three
constructors:

* :meth:`RadiusPolicy.paper` — the exact constants above (the proven
  50-approximation guarantee applies);
* :meth:`RadiusPolicy.from_asdim` — Algorithm 2's parameterisation by
  dimension ``d`` and an arbitrary control function;
* :meth:`RadiusPolicy.practical` — small radii for empirical work (the
  output is still always a valid dominating set; only the proven ratio
  bound is tied to the paper constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graphs.asdim import control_function_k2t


@dataclass(frozen=True)
class RadiusPolicy:
    """Radii used by Algorithm 1/2 plus the approximation bookkeeping."""

    one_cut_radius: int
    """``m_3.2``: radius for local (minimal) 1-cut detection."""
    two_cut_radius: int
    """``m_3.3``: radius for local minimal 2-cuts / interesting vertices."""
    dimension: int = 1
    """Asymptotic dimension ``d`` assumed for the ratio bound."""
    label: str = "custom"

    def __post_init__(self) -> None:
        if self.one_cut_radius < 1 or self.two_cut_radius < 2:
            raise ValueError("need one_cut_radius >= 1 and two_cut_radius >= 2")
        if self.dimension < 0:
            raise ValueError("dimension must be non-negative")

    @property
    def detection_radius(self) -> int:
        """View radius needed for the cut/interesting decisions.

        A 2-cut partner sits within ``two_cut_radius`` of the deciding
        vertex and the cut's arena within another ``two_cut_radius``.
        """
        return max(self.one_cut_radius, 2 * self.two_cut_radius)

    @property
    def ratio_bound(self) -> int:
        """The paper's headline ratio, ``25(d+1)`` (= 50 at ``d = 1``).

        Note a small internal inconsistency in the paper: Theorem 4.1
        computes ``c_3.2(1) + c_3.3(1) + 1 = 50`` while Section 5 proves
        ``c_3.2(d) = 3(d+1)`` and ``c_3.3(d) = 22(d+1)``, whose sum plus
        one is 51 at ``d = 1``.  We report the quoted headline; either
        constant is far above anything measured (sweep S4 of
        ``python -m repro report``).
        The bound is only *proven* for the paper's radii.
        """
        return 25 * (self.dimension + 1)

    @classmethod
    def paper(cls, t: int) -> "RadiusPolicy":
        """The exact constants of Theorem 4.1 for ``K_{2,t}``-minor-free graphs."""
        f = lambda r: control_function_k2t(r, t)
        return cls(
            one_cut_radius=f(5) + 2,
            two_cut_radius=f(11) + 5,
            dimension=1,
            label=f"paper(t={t})",
        )

    @classmethod
    def from_asdim(cls, dimension: int, control: Callable[[int], int]) -> "RadiusPolicy":
        """Algorithm 2's policy: radii from a control function ``f``."""
        return cls(
            one_cut_radius=control(5) + 2,
            two_cut_radius=control(11) + 5,
            dimension=dimension,
            label=f"asdim(d={dimension})",
        )

    @classmethod
    def practical(cls, one_cut_radius: int = 2, two_cut_radius: int = 3) -> "RadiusPolicy":
        """Small radii for simulation-scale experiments."""
        return cls(
            one_cut_radius=one_cut_radius,
            two_cut_radius=two_cut_radius,
            dimension=1,
            label=f"practical({one_cut_radius},{two_cut_radius})",
        )
