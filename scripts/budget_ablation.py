"""Budget ablation: reach target privacy budgets by moving the schedule
slope k or the intercept beta0 while keeping the timestep floor at the
default [defense] t_s (536). delta, alpha and the other schedule values are
the default config's.

The default schedule's floor is epsilon(1000) ~ 6.3, so budgets like 0.3
or 2 are only reachable through the schedule parameters, not through t_s.
Note the slope route can push beta past 1 before t = 1000; the table
reports the largest valid T for each setting.
"""

import math
from dataclasses import replace

from splitstream.config import ExperimentConfig
from splitstream.privacy import (epsilon_for_timestep, solve_intercept_for_budget,
                                 solve_slope_for_budget)

CFG = ExperimentConfig()
DELTA, ALPHA = CFG.privacy.delta, CFG.privacy.alpha
K0, BETA0, T_REF = CFG.schedule.k, CFG.schedule.beta0, CFG.defense.t_s


def max_valid_T(k, beta0, cap=CFG.schedule.T):
    if k == 0:
        return cap
    return min(cap, int(math.floor((1.0 - beta0) / k)) - 1)


def main():
    print(f"{'budget':>8} {'knob':>10} {'value':>12} {'T_max':>6} {f'eps({T_REF})':>10}")
    for budget in (0.3, 2.0, 8.0):
        k = solve_slope_for_budget(budget, T_REF, BETA0, DELTA, ALPHA)
        t_cap = max_valid_T(k, BETA0)
        sched = replace(CFG.schedule, T=t_cap, k=k).build()
        print(f"{budget:8.2f} {'slope k':>10} {k:12.4e} {t_cap:6d} "
              f"{epsilon_for_timestep(min(T_REF, t_cap), sched, DELTA, ALPHA):10.4f}")
        b0 = solve_intercept_for_budget(budget, T_REF, K0, DELTA, ALPHA)
        t_cap = max_valid_T(K0, b0)
        sched = replace(CFG.schedule, T=t_cap, beta0=b0).build()
        print(f"{budget:8.2f} {'beta0':>10} {b0:12.4e} {t_cap:6d} "
              f"{epsilon_for_timestep(min(T_REF, t_cap), sched, DELTA, ALPHA):10.4f}")


if __name__ == "__main__":
    main()
