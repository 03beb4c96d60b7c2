#!/usr/bin/env python3
"""Write bench/reference.json from an integrator apart from flowcurv's.

For every certify case (system x eps) it finds the limit cycle by
iterating the return map on {x = 0, xdot > 0} with scipy's DOP853 at
rtol = atol = 1e-12, and records the period and the section value.  For
every export trajectory it records the state at t_end.  flowcurv is not
imported; the vector field is evaluated from the config coefficients.

    python3 bench/make_reference.py        # about 7 s

Run it only when the inputs in bench/workloads.py or configs/ change:
the benchmark refuses a reference made from other inputs.  scipy is
needed here only; a benchmark run does not import it.
"""

import json

from scipy.integrate import solve_ivp

import checks
import workloads

RTOL = ATOL = 1e-12
SECTION_TOL = 1e-13
MAX_ITER = 30


def field(cfg, eps):
    F, g = cfg["F"], cfg["g"]

    def rhs(t, z):
        x, y = z
        return [(y - checks.horner(F, x)) / eps, -checks.horner(g, x)]

    return rhs


def crossing(direction):
    def event(t, z):
        return z[0]

    event.terminal = True
    event.direction = direction
    return event


def first_return(rhs, y0, horizon):
    """Period and y of the next upward crossing of x = 0, started at (0, y0)."""
    t, z = 0.0, [0.0, y0]
    for direction in (-1, 1):  # leave through x = 0 downward, come back upward
        sol = solve_ivp(rhs, (t, t + horizon), z, method="DOP853", rtol=RTOL, atol=ATOL,
                        events=crossing(direction))
        if sol.status != 1:
            raise RuntimeError(f"no crossing within {horizon}: {sol.message}")
        t, z = float(sol.t_events[0][0]), [0.0, float(sol.y_events[0][0][1])]
    return t, z[1]


def limit_cycle(cfg, eps):
    rhs = field(cfg, eps)
    horizon = 10.0 * (1.0 + 1.0 / eps)
    y = workloads.Y_GUESS
    for _ in range(MAX_ITER):
        period, y_next = first_return(rhs, y, horizon)
        converged = abs(y_next - y) <= SECTION_TOL
        y = y_next
        if converged:
            period, _ = first_return(rhs, y, horizon)
            return {"eps": eps, "period": period, "section_value": y}
    raise RuntimeError(f"return map did not converge at eps={eps}")


def final_state(cfg):
    sim = workloads.SIM
    sol = solve_ivp(field(cfg, sim["eps"]), (0.0, sim["t_end"]), [sim["x0"], sim["y0"]],
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if sol.status != 0:
        raise RuntimeError(sol.message)
    return {"t": float(sol.t[-1]), "x": float(sol.y[0][-1]), "y": float(sol.y[1][-1])}


def main():
    configs = workloads.load_configs()
    ref = {
        "inputs": workloads.reference_inputs(configs),
        "integrator": f"scipy.integrate.solve_ivp DOP853, rtol={RTOL}, atol={ATOL}",
        "certify": {n: [limit_cycle(c, eps) for eps in workloads.EPS_LIST]
                    for n, c in configs.items()},
        "export": {n: final_state(c) for n, c in configs.items()},
    }
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
