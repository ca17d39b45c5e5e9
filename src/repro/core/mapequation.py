"""The map equation (Rosvall & Bergstrom 2008), in its expanded form.

Equation (1) of the paper,

.. math::

    L(M) = q_\\curvearrowright H(Q) + \\sum_i p^i_\\circlearrowright H(\\rho^i),

expands (as in the reference Infomap implementation) into plogp sums over
per-module enter flow, exit flow, and total flow:

.. math::

    L = \\operatorname{plogp}(\\textstyle\\sum_i q_i^{enter})
        - \\sum_i \\operatorname{plogp}(q_i^{enter})
        - \\sum_i \\operatorname{plogp}(q_i^{exit})
        + \\sum_i \\operatorname{plogp}(q_i^{exit} + p_i)
        - \\sum_\\alpha \\operatorname{plogp}(p_\\alpha)

with ``plogp(x) = x log2 x``.  For undirected networks enter ≡ exit and
this reduces to the familiar
``plogp(q) - 2 Σ plogp(q_i) + Σ plogp(q_i + p_i) - Σ plogp(p_α)``.

:class:`MapEquation` evaluates L from arrays (used by tests to verify the
incrementally maintained codelength in :class:`repro.core.partition.Partition`).
"""

from __future__ import annotations

import numpy as np

from repro.util.entropy import plogp_array, plogp

__all__ = ["MapEquation"]


class MapEquation:
    """Stateless map-equation evaluation."""

    @staticmethod
    def node_flow_log(node_flow: np.ndarray) -> float:
        """The node-entropy term ``Σ_α plogp(p_α)``.

        Constant for a network, so a caller that scores many partitions
        of one level computes it once and passes it to
        :meth:`level_codelength`.
        """
        return float(plogp_array(node_flow).sum())

    @staticmethod
    def codelength(
        module_enter: np.ndarray,
        module_exit: np.ndarray,
        module_flow: np.ndarray,
        node_flow: np.ndarray,
    ) -> float:
        """Two-level codelength in bits per step.

        Parameters are per-module enter/exit/total flows (zero entries for
        empty modules are fine — ``plogp(0) = 0``) and the per-node visit
        rates.
        """
        return MapEquation.level_codelength(
            module_enter, module_exit, module_flow,
            MapEquation.node_flow_log(node_flow),
        )

    @staticmethod
    def level_codelength(
        module_enter: np.ndarray,
        module_exit: np.ndarray,
        module_flow: np.ndarray,
        node_flow_log: float,
    ) -> float:
        """:meth:`codelength` with the node term precomputed.

        ``node_flow_log`` is :meth:`node_flow_log` of the level's node
        flows; the result is the same float as :meth:`codelength`.
        """
        sum_enter = float(module_enter.sum())
        enter_log_enter = float(plogp_array(module_enter).sum())
        exit_log_exit = float(plogp_array(module_exit).sum())
        flow_log_flow = float(plogp_array(module_exit + module_flow).sum())
        return (
            plogp(sum_enter)
            - enter_log_enter
            - exit_log_exit
            + flow_log_flow
            - node_flow_log
        )

    @staticmethod
    def index_codelength(module_enter: np.ndarray) -> float:
        """The between-module term ``q H(Q)`` of equation (1)."""
        sum_enter = float(module_enter.sum())
        return plogp(sum_enter) - float(plogp_array(module_enter).sum())

    @staticmethod
    def module_codelength(
        module_exit: np.ndarray,
        module_flow: np.ndarray,
        node_flow: np.ndarray,
    ) -> float:
        """The within-module term ``Σ p_i H(ρ^i)`` of equation (1)."""
        return (
            -float(plogp_array(module_exit).sum())
            + float(plogp_array(module_exit + module_flow).sum())
            - MapEquation.node_flow_log(node_flow)
        )

    @staticmethod
    def one_level_codelength(node_flow: np.ndarray) -> float:
        """Codelength of the trivial all-in-one-module partition.

        With a single module there is no index codebook and no exits:
        L = H(node visit rates).
        """
        return -MapEquation.node_flow_log(node_flow)
