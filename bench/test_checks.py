"""Each output check of the benchmark rejects one wrong output.

    python3 bench/test_checks.py

Every test first shows that the check passes the right output, then
that it rejects the same output with one fault put in.
"""

import copy
import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def settling_report(n=34, settling_failures=25) -> dict:
    """A verify report whose only failures are the settling-layer ones."""
    rows = {cid: {"pass": n, "fail": 0, "min_margin": 0.1} for cid in checks.CHECK_IDS}
    rows["PHIDOT_POS"] = {"pass": n - settling_failures, "fail": settling_failures,
                          "min_margin": -0.5}
    return {"system": "llibre_mereu", "eps": 0.05, "band": 1.0, "n_points": n,
            "checks": rows, "overall": False}


class ChecksRejectWrongOutput(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.configs = workloads.load_configs()
        cls.ref = workloads.load_reference(cls.configs)

    def test_report_with_xdot_neg_failure(self):
        good = settling_report()
        self.assertEqual(checks.verify_report("t", good), [])
        self.assertEqual(checks.cli_verify("t", 1, json.dumps(
            dict(good, assumptions={k: {"holds": True} for k in
                                    ("I", "II", "III", "IV", "gprime_nonneg")})) + "\n"), [])
        bad = copy.deepcopy(good)
        bad["checks"]["XDOT_NEG"] = {"pass": 33, "fail": 1, "min_margin": -1e-3}
        self.assertTrue(checks.verify_report("t", bad))

    def test_csv_row_with_phi_off_by_1e6_relative(self):
        export = workloads.Export()
        try:
            out = export.run()["vdp"]
            csv_text = pathlib.Path(out["traj"]).read_text()
        finally:
            export.close()
        args = (out["summary"], self.configs["vdp"], workloads.SIM, self.ref["export"]["vdp"])
        self.assertEqual(checks.trajectory("vdp", csv_text, *args), [])
        lines = csv_text.splitlines()
        row = lines[len(lines) // 2].split(",")
        row[5] = repr(float(row[5]) * (1.0 + 1e-6))
        lines[len(lines) // 2] = ",".join(row)
        self.assertTrue(checks.trajectory("vdp", "\n".join(lines) + "\n", *args))

    def test_h_coefficients_off_by_1e6(self):
        _, h = checks.EXPECTED_CASE["llibre_mereu"]
        self.assertEqual(checks.case_function("llibre_mereu", "CASE2_H_NONPOS", h), [])
        wrong = list(h)
        wrong[4] += 1e-6
        self.assertTrue(checks.case_function("llibre_mereu", "CASE2_H_NONPOS", wrong))

    def test_fitted_order_of_one(self):
        self.assertEqual(checks.orders("vdp", 1.94, 0.98), [])
        self.assertTrue(checks.orders("vdp", 1.0, 0.98))

    def test_period_off_by_1e6(self):
        ref = self.ref["certify"]["vdp"][2]
        good = (True, ref["period"], ref["section_value"], ref)
        self.assertEqual(checks.cycle("vdp", *good), [])
        self.assertTrue(checks.cycle("vdp", True, ref["period"] + 1e-6,
                                     ref["section_value"], ref))

    def test_manifold_row_off_the_branch(self):
        cfg = self.configs["vdp"]
        spec = {"x_lo": 1.5, "x_hi": 2.0, "n": 2}
        rows = []
        for x in (1.5, 2.0):
            f, g = x * x - 1.0, x
            b, c = f * g, cfg["eps"] * g * g
            q = -(b + (b * b - 4.0 * c) ** 0.5) / 2.0
            u_slow, u_fast = c / q, q
            rows.append([x, checks.horner(cfg["F"], x) + u_slow, u_slow, u_fast])
        text = "\n".join([",".join(checks.MANIFOLD_HEADER)]
                         + [",".join(map(repr, r)) + ",false" for r in rows]) + "\n"
        self.assertEqual(checks.manifold("vdp", text, cfg, spec), [])
        rows[1][2] *= 1.0 + 1e-6
        rows[1][1] = checks.horner(cfg["F"], 2.0) + rows[1][2]
        text = "\n".join([",".join(checks.MANIFOLD_HEADER)]
                         + [",".join(map(repr, r)) + ",false" for r in rows]) + "\n"
        self.assertTrue(checks.manifold("vdp", text, cfg, spec))


if __name__ == "__main__":
    unittest.main()
