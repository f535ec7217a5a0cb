"""A general-aviation-aircraft-flavoured constrained design problem.

The paper motivates the Borg MOEA with Hadka et al.'s general aviation
aircraft (GAA) study: designing aircraft subject to nine economic and
performance constraints, where competing algorithms struggled to find
feasible solutions at all.  The published GAA model is proprietary
(NASA's aircraft sizing code), so this module provides a synthetic
aircraft-design problem with the same *shape*: a modest number of
physically-motivated design variables, five conflicting objectives, and
nine constraints tight enough that random sampling is almost entirely
infeasible.  It exists for the constrained-optimisation example and
tests, not for quantitative aerodynamics.
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = ["AircraftDesign"]


def _violation_ge(value: float, limit: float) -> float:
    """Violation magnitude of ``value >= limit``."""
    return max(0.0, limit - value)


def _violation_le(value: float, limit: float) -> float:
    """Violation magnitude of ``value <= limit``."""
    return max(0.0, value - limit)


class AircraftDesign(Problem):
    """Synthetic 9-variable, 5-objective, 9-constraint aircraft sizing.

    Decision variables (all normalised to physical ranges):

    0. cruise speed        [kts]      150 - 300
    1. aspect ratio        [-]        6 - 12
    2. wing loading        [lb/ft^2]  15 - 30
    3. engine power        [hp]       150 - 400
    4. fuel mass fraction  [-]        0.08 - 0.25
    5. seat count          [-]        2 - 6 (continuous relaxation)
    6. taper ratio         [-]        0.4 - 1.0
    7. propeller diameter  [ft]       5 - 8
    8. wing area           [ft^2]     120 - 250

    Objectives (all minimised): fuel burn, cabin noise, acquisition
    cost, negative range, negative climb rate.
    """

    VARIABLE_NAMES = (
        "cruise_speed",
        "aspect_ratio",
        "wing_loading",
        "engine_power",
        "fuel_fraction",
        "seats",
        "taper_ratio",
        "prop_diameter",
        "wing_area",
    )

    OBJECTIVE_NAMES = (
        "fuel_burn",
        "noise",
        "cost",
        "neg_range",
        "neg_climb_rate",
    )

    def __init__(self) -> None:
        lower = np.array([150, 6.0, 15.0, 150, 0.08, 2.0, 0.4, 5.0, 120.0])
        upper = np.array([300, 12.0, 30.0, 400, 0.25, 6.0, 1.0, 8.0, 250.0])
        super().__init__(
            nvars=9,
            nobjs=5,
            lower=lower,
            upper=upper,
            nconstraints=9,
            name="AircraftDesign",
        )

    def _physics(self, x: np.ndarray) -> dict[str, float]:
        speed, ar, wl, power, ff, seats, taper, prop, area = x
        gross_weight = wl * area
        empty_weight = 0.6 * gross_weight + 2.0 * power + 60.0 * seats
        fuel_weight = ff * gross_weight
        payload = gross_weight - empty_weight - fuel_weight
        # Drag model: parasitic grows with speed^2 and area; induced
        # falls with aspect ratio and speed^2.
        q = 0.5 * 0.002377 * (speed * 1.688) ** 2  # dynamic pressure, slugs
        cd0 = 0.025 * (1.0 + 0.1 * (1.0 - taper))
        drag = q * area * cd0 + (wl * area) ** 2 / (
            q * area * np.pi * ar * 0.8
        )
        required_power = drag * speed * 1.688 / 550.0 / 0.8  # hp
        sfc = 0.45  # lb/hp/hr
        fuel_flow = sfc * required_power
        endurance = fuel_weight / max(fuel_flow, 1e-9)  # hours
        range_nm = endurance * speed
        excess_power = power - required_power
        climb_rate = 33000.0 * excess_power / max(gross_weight, 1e-9)  # fpm
        stall_speed = np.sqrt(2.0 * wl / (0.002377 * 1.6)) / 1.688  # kts
        noise = (
            60.0
            + 18.0 * np.log10(max(power, 1.0))
            + 8.0 * np.log10(max(speed, 1.0))
            - 6.0 * np.log10(prop)
        )
        cost = (
            80.0
            + 0.35 * power
            + 0.25 * empty_weight / 10.0
            + 12.0 * seats
            + 0.5 * (speed - 150.0)
        )  # $k
        return {
            "gross_weight": gross_weight,
            "empty_weight": empty_weight,
            "fuel_weight": fuel_weight,
            "payload": payload,
            "required_power": required_power,
            "fuel_flow": fuel_flow,
            "range_nm": range_nm,
            "climb_rate": climb_rate,
            "stall_speed": stall_speed,
            "noise": noise,
            "cost": cost,
        }

    def _evaluate_batch(self, X: np.ndarray):
        """Objectives and constraint violations from one :meth:`_physics`
        pass per row."""
        n = X.shape[0]
        F = np.empty((n, self.nobjs))
        C = np.empty((n, self.nconstraints))
        for i, x in enumerate(X):
            p = self._physics(x)
            F[i] = (
                p["fuel_flow"],          # fuel burn (lb/hr)
                p["noise"],              # cabin noise (dB-ish)
                p["cost"],               # acquisition cost ($k)
                -p["range_nm"],          # maximise range
                -p["climb_rate"],        # maximise climb rate
            )
            C[i] = (
                _violation_ge(p["payload"], 170.0 * x[5]),      # carry pax
                _violation_ge(p["climb_rate"], 500.0),           # min climb
                _violation_le(p["stall_speed"], 61.0),           # FAR 23 stall
                _violation_ge(p["range_nm"], 400.0),             # min range
                _violation_le(p["noise"], 118.0),                # noise cap
                _violation_le(p["cost"], 400.0),                 # budget cap
                _violation_ge(x[3] - p["required_power"], 0.0),  # power margin
                _violation_le(p["gross_weight"], 6000.0),        # weight cap
                _violation_ge(p["fuel_weight"], 120.0),          # reserve fuel
            )
        return F, C

    def default_epsilons(self) -> np.ndarray:
        # Scaled roughly to 1% of each objective's interesting span.
        return np.array([1.0, 0.5, 5.0, 20.0, 25.0])
