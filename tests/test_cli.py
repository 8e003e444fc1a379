import csv
import io
import json
import os
import random

import numpy as np
import pytest

from qtriple import cli, ncpoly, rep, triple
from qtriple.cli import main
from qtriple.rep import TruncationSpec, edge_defect, load_matrix, represent
from qtriple.grammar import parse
from qtriple.ncpoly import QParam


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNormalize:
    def test_relation_reduces_to_zero(self, capsys):
        code, out, _ = run(capsys, "normalize", "a b - q b a")
        assert code == 0
        assert "0" in out

    def test_swap_gains_inverse_q(self, capsys):
        code, out, _ = run(capsys, "normalize", "b*a")
        assert code == 0
        assert "a b" in out and "q^-1" in out

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "normalize", "1")
        assert code == 0
        assert "1" in out

    def test_mixed_aliases_not_oversimplified(self, capsys):
        # aa* + bb* = 1 + (1-q^2) bb', printed as computed
        code, out, _ = run(capsys, "normalize", "a*a' + b*b'")
        assert code == 0
        assert "0.75" in out  # 1 - q^2 at q = 0.5

    def test_json_format_frozen_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "normalize", "q^-1 a b")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"q", "terms"}
        assert data["terms"] == [{"a": 1, "b": 1, "bs": 0, "re": 2.0, "im": 0.0}]

    def test_small_monomial_product_scaled_up_is_kept(self, capsys):
        # b^25 a* = q^25 a* b^25: 3.4e-18 at q = 0.2, below the prune, but
        # the product's coefficient is 1e12 times that
        code, out, _ = run(capsys, "normalize", "1e12 b^25 a'", "--q", "0.2")
        assert code == 0
        assert out.splitlines()[0] == "canonical form: 3.3554432e-06 * a* b^25"

    def test_scalar_after_a_small_product_is_kept(self, capsys):
        # the parser folds left to right: b^25 a* (3.4e-18) is an
        # intermediate product here, and only the result is pruned
        code, out, _ = run(capsys, "normalize", "b^25 a' 1e12", "--q", "0.2")
        assert code == 0
        assert out.splitlines()[0] == "canonical form: 3.3554432e-06 * a* b^25"

    def test_parse_error_exits_2(self, capsys):
        for command in ("normalize", "haar", "dump-matrix"):
            code, out, err = run(capsys, command, "a + $", "--out", os.devnull)
            assert code == 2 and out == ""
            assert err == "parse error: unexpected character '$' (at position 4)\n"


class TestConfig:
    def test_bad_q_exits_2(self, capsys):
        code, _, err = run(capsys, "--q", "1.5", "normalize", "a")
        assert code == 2
        assert "configuration error" in err

    def test_bad_tolerance_name_exits_2(self, capsys):
        code, _, err = run(capsys, "--tol", "bogus=1", "verify", "parity")
        assert code == 2

    def test_flags_accepted_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "normalize", "b a", "--q", "0.25")
        assert code == 0
        assert "4" in out  # q^-1 = 4

    def test_out_of_range_values_exit_2(self, capsys):
        for argv in (["verify", "gns", "--lmax2", "9"],
                     ["gram", "--lmax2", "12"],
                     ["verify", "relations", "--tol", "relations=tight"],
                     ["haar", "a", "--fock", "2"],
                     ["verify", "relations", "--zband", "3", "--margin", "5"],
                     # margin + 2 beyond min(fock - 1, zband): no interior window
                     ["verify", "relations", "--fock", "4", "--zband", "2", "--margin", "1"],
                     ["verify", "relations", "--fock", "4", "--zband", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "configuration error" in err, argv

    @pytest.mark.parametrize("argv", [
        # an odd order with a fractional theta: the total-parity grading is
        # not defined on degrees mod N
        ["deform", "--n", "3", "--theta", "1/3"],
        ["deform", "--n", "5", "--theta", "1/5"],
        # a non-finite theta has no phase
        ["deform", "--theta", "nan"],
        ["deform", "--theta", "inf"],
        ["deform", "--theta", "1e400"],
        # a NaN tolerance fails its check and inf passes every one; neither is JSON
        ["gns", "--tol", "orthonormality=nan"],
        ["relations", "--tol", "relations=inf"],
        # the relation residuals are read on an interior window, margin >= 1
        ["relations", "--margin", "0"],
        ["relations", "--margin", "-3"],
    ])
    def test_user_error_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["normalize", "a"],
        ["verify", "deform"],
        ["dump-matrix", "a", "--format", "bin"],
    ])
    def test_unwritable_out_exits_2_with_one_line(self, capsys, tmp_path, argv):
        for out in (tmp_path / "missing" / "x", tmp_path):
            code, stdout, err = run(capsys, *argv, "--out", str(out))
            assert code == 2 and stdout == ""
            assert err.startswith(f"configuration error: cannot write --out {out}: ")
            assert err.count("\n") == 1

    def test_failed_write_to_an_opened_out_is_not_a_config_error(self, capsys, tmp_path,
                                                                  monkeypatch):
        def disk_full(mat, path, fmt):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(rep, "save_matrix", disk_full)
        with pytest.raises(OSError, match="No space"):
            main(["dump-matrix", "a", "--out", str(tmp_path / "m.json")])
        assert "configuration error" not in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("internal fault")
        monkeypatch.setattr(cli, "suite_parity", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["verify", "parity", "--lmax2", "1"])
        assert "configuration error" not in capsys.readouterr().err

    def test_degenerate_sector_measure_is_config_error(self, capsys):
        # extreme q at depth collapses the sector measure: exit 2, not a crash
        # (at q = 1e-20 and lmax2 5 the weight of sector (2, -3) is q^8 =
        # 1e-160 on its first node, and its square leaves the float range)
        code, _, err = run(capsys, "verify", "parity", "--q", "1e-20")
        assert code == 2
        assert "configuration error" in err
        code, _, _ = run(capsys, "verify", "parity", "--q", "1e-20", "--lmax2", "3")
        assert code == 0
        code, _, _ = run(capsys, "verify", "parity", "--q", "0.1")
        assert code == 0


class TestVerify:
    def test_relations_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "relations")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["suite"] == "relations"
        names = [c["name"] for c in report["checks"]]
        assert any("normal-form oracle" in n for n in names)
        assert sum("relation" in n for n in names) == 5
        for c in report["checks"]:
            assert set(c) == {"name", "pass", "detail", "tolerance", "value"}

    @pytest.mark.parametrize("fock, zband", [("6", "3"), ("4", "3")])
    def test_relations_pass_at_small_windows(self, capsys, fock, zband):
        # words of length 8 grazed these windows' edges: the oracle read 256.0
        for seed in range(5):
            code, out, _ = run(capsys, "verify", "relations", "--fock", fock, "--zband", zband,
                               "--margin", "1", "--seed", str(seed))
            assert code == 0
            oracle = json.loads(out)["checks"][-1]
            assert oracle["value"] <= 1e-15
            assert oracle["detail"] == "relative interior residual, margin = word length <= 3"

    def test_relations_report_keys_and_edge_defect_metric(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--fock", "20", "--zband", "10")
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["suite", "config", "checks", "all_pass", "metrics"]
        assert len(report["checks"]) == 6
        want = edge_defect(TruncationSpec(20, 10), QParam(0.5))
        assert report["metrics"] == {"edge_defect": want}
        assert report["metrics"]["edge_defect"] >= 1.0 - 0.5 ** 40

    @pytest.mark.parametrize("q, lmax2, overlap", [("0.5", "8", 1e-12), ("0.3", "7", 1e-12),
                                                   ("0.2", "8", 1e-10)])
    def test_gns_passes_at_deep_cutoffs(self, capsys, q, lmax2, overlap):
        # the Hankel basis failed orthonormality at (0.5, 8) and stopped
        # with a singular Gram at the other two (exit 2)
        code, out, _ = run(capsys, "verify", "gns", "--q", q, "--lmax2", lmax2)
        assert code == 0
        values = {c["name"]: c["value"] for c in json.loads(out)["checks"]}
        assert values["orthonormality"] <= 1e-14
        assert values["matrix coefficients match Gram-Schmidt"] <= overlap

    def test_config_echo_and_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "parity", "--seed", "7", "--lmax2", "2")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["seed"] == 7
        assert report["config"]["q"] == 0.5
        assert "tolerances" in report["config"]

    def test_normal_form_oracle_catches_a_wrong_q_power(self, capsys, monkeypatch):
        # every nontrivial passing factor of the closed-form product one power
        # of q off: normalize's fold then disagrees with the representation
        monkeypatch.setattr(ncpoly, "_qpow", lambda q, e: q ** (e + 1) if e else 1.0)
        code, out, _ = run(capsys, "verify", "relations")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not checks["normal-form oracle (200 words)"]["pass"]
        assert all(c["pass"] for n, c in checks.items() if n.startswith("relation "))

    @pytest.mark.parametrize("q", ["0.15", "0.5", "0.9"])
    def test_normal_form_oracle_is_relative(self, capsys, q):
        # at q = 0.15 normal-form coefficients reach 7.7e9 and the absolute
        # residual 4.7e-10; relative to them it is rounding
        code, out, _ = run(capsys, "verify", "relations", "--q", q)
        assert code == 0
        oracle = json.loads(out)["checks"][-1]
        assert oracle["name"] == "normal-form oracle (200 words)"
        assert oracle["value"] <= 1e-15

    def test_normal_form_oracle_catches_a_foreign_sector_term(self, capsys, monkeypatch):
        # 1e-6 b added to every normal form, foreign to every word outside
        # b's sector: relative to the normal forms' coefficients it stays 1e-6;
        # the suite normalizes each word once and hands the forms to the oracle
        exact = cli.normalize
        monkeypatch.setattr(cli, "normalize", lambda word, qp: exact(word, qp)
                            + 1e-6 * ncpoly.NCPolynomial.generator(qp, ncpoly.BETA))
        code, out, _ = run(capsys, "verify", "relations")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["normal-form oracle (200 words)"]["value"] >= 0.999e-6
        assert [n for n, c in checks.items() if not c["pass"]] == ["normal-form oracle (200 words)"]

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--tol", "relations=1e-30",
                           "--tol", "normal_form=1e-30")
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    def test_deform_residual_table(self, capsys):
        code, out, _ = run(capsys, "verify", "deform", "--n", "4", "--theta", "1/4")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        keys = {(r["lemma"], r["x"], r["y"]) for r in report["residuals"]}
        assert ("A", "clock", "shift") in keys and ("B", "shift", "clock") in keys
        assert all(r["residual"] <= 1e-13 for r in report["residuals"])

    def test_deform_float_theta_passes(self, capsys):
        # the thetas of the operators workload (bench/workloads.py): in
        # generic mode each cyclic shift splits into a band and its
        # wraparound, and lemma A runs over every pair of those components
        for seed in range(1, 201):
            theta = f"{random.Random(seed).uniform(0.05, 0.45):.6f}"
            code, out, err = run(capsys, "verify", "deform", "--n", "24", "--theta", theta)
            report = json.loads(out)
            assert code == 0 and report["all_pass"], (theta, err)
            assert all(c["pass"] for c in report["checks"])

    def test_deform_float_theta_large_model(self, capsys):
        # |D| grows as 2(N - 1); the bracket with a diagonal D is taken as
        # (D at target - D at source) x weight, so nothing cancels at N = 400
        code, out, err = run(capsys, "verify", "deform", "--n", "400", "--theta", "0.432414")
        assert code == 0, err
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        bracket = checks["[D, l(a)] = l([D, a])"]
        assert bracket["pass"] and bracket["tolerance"] == 1e-13

    def test_triple_reports_restricted_spectrum(self, capsys):
        code, out, _ = run(capsys, "verify", "triple", "--lmax2", "4")
        assert code == 0
        report = json.loads(out)
        spec = {row["eig"]: row["mult"] for row in report["spectrum"]}
        assert spec == {-1: 1, -3: 3, 3: 6, -5: 5, 5: 20}

    def test_covering_decomposition_mismatch_fails_its_check(self, capsys, monkeypatch):
        # each factor doubled: no decomposition reassembles, and the suite
        # reports that as a failing check rather than raising
        exact = triple.module_decompose
        monkeypatch.setattr(triple, "module_decompose",
                            lambda x: [(2 * f, letter) for f, letter in exact(x)])
        code, out, _ = run(capsys, "verify", "covering")
        assert code == 1
        report = json.loads(out)
        assert report["all_pass"] is False and len(report["checks"]) == 2
        name = "odd monomials decompose (deg <= 8)"
        checks = {c["name"]: c for c in report["checks"]}
        assert [n for n, c in checks.items() if not c["pass"]] == [name]
        assert checks[name]["value"] == 120.0
        assert checks[name]["detail"] == "0 of 120 monomials"

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "covering", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "covering", "--seed", "3")
        assert out1 == out2


class TestAppliedTolerances:
    """A tolerance set by --tol, or its default, is echoed in the report and
    applied by its checks: a defect fails the default and passes once the
    tolerance reaches it."""

    @staticmethod
    def verify(capsys, *argv):
        code, out, _ = run(capsys, "verify", *argv)
        report = json.loads(out)
        return code, report, {c["name"]: c for c in report["checks"]}

    def test_parity(self, capsys, monkeypatch):
        # a sign flip that fixes every basis vector: each odd-l label reads
        # twice its largest node as its defect
        monkeypatch.setattr(triple, "z2_act", lambda p: p)
        code, _, checks = self.verify(capsys, "parity", "--lmax2", "3")
        worst = max(c["value"] for c in checks.values())
        assert code == 1 and worst > 0.0
        assert {c["tolerance"] for c in checks.values()} == {0.0}
        code, report, checks = self.verify(capsys, "parity", "--lmax2", "3",
                                           "--tol", f"parity={worst!r}")
        assert code == 0 and report["config"]["tolerances"]["parity"] == worst
        assert {c["tolerance"] for c in checks.values()} == {worst}

    def test_covering(self, capsys, monkeypatch):
        # module products without their sign-flipped half are not fixed by g
        monkeypatch.setattr(triple, "hilbert_module_product", lambda a, b: ncpoly.mul(
            ncpoly.adjoint(a), b))
        name = "module products sign-flip fixed"
        code, _, checks = self.verify(capsys, "covering")
        worst = checks[name]["value"]
        assert code == 1 and worst > 0.0 and checks[name]["tolerance"] == 0.0
        code, report, checks = self.verify(capsys, "covering", "--tol", f"covering={worst!r}")
        assert code == 0 and report["config"]["tolerances"]["covering"] == worst
        assert checks[name]["pass"] and checks[name]["tolerance"] == worst

    def test_haar(self, capsys):
        # the default is 10 q^(2 N_F) on the check's 24 Fock levels: at
        # q = 0.9 it passes the check's 6.4e-3, and half that value fails
        name = "haar exact vs numeric (deg <= 6)"
        code, report, checks = self.verify(capsys, "gns", "--q", "0.9", "--lmax2", "2")
        value = checks[name]["value"]
        assert code == 0 and value > 0.0
        assert checks[name]["tolerance"] == report["config"]["tolerances"]["haar"]
        assert checks[name]["tolerance"] == 10.0 * 0.9 ** 48
        assert checks[name]["detail"] == "fock_dim 24, tolerance floored at machine precision"
        code, report, checks = self.verify(capsys, "gns", "--q", "0.9", "--lmax2", "2",
                                           "--tol", f"haar={value / 2!r}")
        assert code == 1 and report["config"]["tolerances"]["haar"] == value / 2
        assert [n for n, c in checks.items() if not c["pass"]] == [name]
        assert checks[name]["tolerance"] == value / 2
        # a --tol value is applied as given, so the detail claims no floor
        assert checks[name]["detail"] == "fock_dim 24"


class TestSpectrum:
    def test_csv_frozen_columns(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--lmax2", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["l2", "j2-class", "eig", "mult", "sector"]
        sectors = {r[4] for r in rows[1:]}
        assert sectors == {"oriented", "unoriented"}

    def test_oriented_lmax_one_eigenvalues(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--lmax2", "2")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        oriented = {int(r[2]) for r in rows if r[4] == "oriented"}
        assert oriented == {-1, -2, 2, -3, 3}
        unoriented = {int(r[2]) for r in rows if r[4] == "unoriented"}
        assert unoriented == {-1, -3, 3}

    def test_multiplicity_sum(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--lmax2", "2")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert sum(int(r[3]) for r in rows if r[4] == "oriented") == 14


class TestDumps:
    def test_dump_basis_schema(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "basis.json")
        code, _, _ = run(capsys, "dump-basis", "--lmax2", "2", "--out", path)
        assert code == 0
        data = json.load(open(path))
        assert set(data) == {"lmax2", "entries"}
        assert len(data["entries"]) == 1 + 4 + 9
        entry = data["entries"][0]
        assert set(entry) == {"l2", "j2", "k2", "norm", "poly"}
        assert set(entry["poly"]) == {"q", "terms"}

    def test_dump_matrix_binary(self, capsys, tmp_path):
        path = os.fspath(tmp_path / "m.bin")
        code, _, _ = run(capsys, "dump-matrix", "a b'", "--fock", "6", "--zband", "3",
                         "--format", "bin", "--out", path)
        assert code == 0
        t = TruncationSpec(6, 3)
        with open(path, "rb") as fh:
            header = fh.read(16)
        assert int.from_bytes(header[:4], "little") == t.dim
        mat = load_matrix(path, "bin")
        assert np.array_equal(mat, represent(parse("a b'", QParam(0.5)), t))

    def test_dump_matrix_requires_out(self, capsys):
        code, _, err = run(capsys, "dump-matrix", "a")
        assert code == 2
        assert err == "configuration error: dump-matrix requires --out\n"

    def test_dump_matrix_format_refused(self, capsys, tmp_path):
        code, _, err = run(capsys, "dump-matrix", "a", "--format", "csv",
                           "--out", os.fspath(tmp_path / "m.csv"))
        assert code == 2
        assert err == "configuration error: matrix format must be json or bin, got csv\n"
        assert not (tmp_path / "m.csv").exists()


class TestProcessLevel:
    def test_env_log_level_and_module_entry(self):
        import subprocess
        import sys
        env = dict(os.environ, QTRIPLE_LOG="info")
        r = subprocess.run(
            [sys.executable, "-m", "qtriple.cli", "verify", "parity", "--lmax2", "1"],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_pass"] is True
        assert "INFO qtriple" in r.stderr


class TestHaarCommand:
    def test_reports_both_values(self, capsys):
        code, out, _ = run(capsys, "haar", "b b'")
        assert code == 0
        assert "0.8" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "haar", "1")
        data = json.loads(out)
        assert data["exact"] == [1.0, 0.0]
        assert data["abs_diff"] < 1e-9
