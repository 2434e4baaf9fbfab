import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvreach
from curvreach import bnb, oracle, reach
from curvreach.cli import main
from curvreach.fileio import (dumps17, load_network, load_system, load_zonotope,
                              parse_box, polytope_to_dict, save_network)
from curvreach.model import ScalarObjective, network_to_dict, scalarize
from conftest import (DATA, blind_to_input, linear_net, make_net,
                      monotone_calls, two_layer_net)


@pytest.fixture
def linear_file(tmp_path):
    path = tmp_path / "linear.json"
    save_network(linear_net([[2.0, -1.0]], b=[0.5]), path)
    return str(path)


@pytest.fixture
def tanh_file(tmp_path):
    path = tmp_path / "tanh.json"
    save_network(make_net([2, 6, 2], seed=6000), path)
    return str(path)


@pytest.fixture
def di_files(tmp_path, di_controller):
    ctrl = tmp_path / "di_controller.json"
    save_network(di_controller, ctrl)
    system = tmp_path / "di_system.json"
    system.write_text(json.dumps({
        "A": [[1.0, 1.0], [0.0, 1.0]],
        "B": [[0.5], [1.0]],
        "T": 5,
    }))
    zono = tmp_path / "hex.json"
    zono.write_text(json.dumps({
        "G": [[0.1, 0.1, 0.1], [-0.1, 0.0, 0.1]],
        "center": [2.5, 0.0],
    }))
    return str(system), str(ctrl), str(zono)


class TestExitCodes:
    def test_linear_bnb_converges_at_root(self, linear_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["bnb", "--network", linear_file, "--direction", "1",
                     "--box=-1..1,-1..1", "--eps-t", "1e-6",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["branches_processed"] == 1
        assert data["status"] == "Converged"

    def test_zero_eps_t_rejected(self, linear_file, capsys):
        code = main(["bnb", "--network", linear_file, "--direction", "1",
                     "--box=-1..1,-1..1", "--eps-t", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bnb", "reach"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--max-branches", "0", "max_branches"),
        ("--max-branches", "-3", "max_branches"),
        ("--eps-t", "nan", "eps_t"),
    ])
    def test_bad_solver_config_rejected(self, linear_file, capsys, command,
                                        flag, value, field):
        direction = [] if command == "reach" else ["--direction", "1"]
        code = main([command, "--network", linear_file, *direction,
                     "--box=-1..1,-1..1", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_missing_file(self, capsys):
        code = main(["bnb", "--network", "/nonexistent.json",
                     "--direction", "1", "--box=-1..1"])
        assert code == 1

    def test_malformed_json_pointered(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layers": [\n  {"weight": [[1.0]],,}\n]}')
        code = main(["bnb", "--network", str(bad), "--direction", "1",
                     "--box=-1..1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.json:2:" in err and "malformed JSON" in err

    @pytest.mark.parametrize("extra", [[], ["--direction", "1,0"]])
    def test_seed_rejected_where_unused(self, tanh_file, capsys, extra):
        # lipschitz and hessian draw no samples
        command = "hessian" if extra else "lipschitz"
        code = main([command, "--network", tanh_file, "--box=-1..1,-1..1",
                     *extra, "--seed", "3"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["warnings-recorded", "warnings-as-errors"])
    @pytest.mark.parametrize("command", ["lipschitz", "hessian", "bnb"])
    def test_overflowing_net_names_the_cause(self, tmp_path, capsys, command,
                                             strict):
        # a 2-4-3-1 tanh net with weights scaled by 1e160: the product of
        # its layer norms overflows, and each command refuses it by name
        # before any numpy warning, with warnings raised as errors or not
        import warnings
        from curvreach.model import Layer, Network
        path = tmp_path / "big.json"
        save_network(Network(tuple(
            Layer(1e160 * lay.weight, lay.bias, lay.activation)
            for lay in make_net([2, 4, 3, 1], seed=6100).layers)), path)
        extra = [] if command == "lipschitz" else ["--direction", "1"]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("error" if strict else "always",
                                  RuntimeWarning)
            code = main([command, "--network", str(path), "--box=-1..1,-1..1",
                         *extra])
        assert code == 1
        assert not seen
        err = capsys.readouterr().err
        assert err.startswith("error: the weights overflow the Lipschitz "
                              "chain")

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["warnings-recorded", "warnings-as-errors"])
    @pytest.mark.parametrize("command", ["lipschitz", "hessian", "bnb"])
    def test_overflowing_curvature_chain_names_the_cause(self, tmp_path,
                                                         capsys, command,
                                                         strict):
        # the same net with weights scaled by 1e100: its layer norms multiply
        # to about 1e300, but the Hessian bounds square the first ones.
        # hessian and bnb refuse it by name before any numpy warning, with
        # warnings raised as errors or not; lipschitz needs no second order
        # and reports finite constants
        import warnings
        from curvreach.model import Layer, Network
        path, out = tmp_path / "big.json", tmp_path / "out.json"
        save_network(Network(tuple(
            Layer(1e100 * lay.weight, lay.bias, lay.activation)
            for lay in make_net([2, 4, 3, 1], seed=6100).layers)), path)
        extra = [] if command == "lipschitz" else ["--direction", "1"]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("error" if strict else "always",
                                  RuntimeWarning)
            code = main([command, "--network", str(path), "--box=-1..1,-1..1",
                         *extra, "--out", str(out)])
        assert not seen
        if command == "lipschitz":
            assert code == 0
            data = json.loads(out.read_text())
            assert np.isfinite([data["L_total"], *data["L_subnet"]]).all()
        else:
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: the weights overflow the curvature "
                                  "chain")

    @pytest.mark.parametrize("case", ["inf-box", "nan-box", "nan-weight",
                                      "inf-generator", "nan-direction",
                                      "nan-drift"])
    def test_non_finite_input_names_field(self, tanh_file, di_files, tmp_path,
                                          capsys, case):
        net = json.loads(Path(tanh_file).read_text())
        net["layers"][0]["weight"][0][0] = float("nan")
        nan_net = tmp_path / "nan.json"
        nan_net.write_text(json.dumps(net))
        zono = tmp_path / "zono.json"
        zono.write_text('{"G": [[Infinity, 0.0], [0.0, 0.1]], '
                        '"center": [0.0, 0.0]}')
        system, ctrl, hexagon = di_files
        drift = tmp_path / "drift.json"
        drift.write_text(json.dumps({**json.loads(Path(system).read_text()),
                                     "c": [float("nan"), 0.0]}))
        bnb = ["bnb", "--network", tanh_file, "--direction", "1,0"]
        # the field, prefixed by the file it came from where there is one
        argv, field = {
            "inf-box": ([*bnb, "--box=-1..inf,-1..1"], "box hi"),
            "nan-box": ([*bnb, "--box=nan..1,-1..1"], "box lo"),
            "nan-weight": (["bnb", "--network", str(nan_net), "--direction",
                            "1,0", "--box=-1..1,-1..1"],
                           f"{nan_net}: layer 0: weight"),
            "inf-generator": ([*bnb, "--zonotope", str(zono)],
                              f"{zono}: zonotope G"),
            "nan-direction": (["bnb", "--network", tanh_file, "--direction",
                               "nan,0", "--box=-1..1,-1..1"],
                              "vector 'nan,0'"),
            "nan-drift": (["closedloop", "--system", str(drift),
                           "--controller", ctrl, "--zonotope", hexagon,
                           "--steps", "1", "--out-dir", str(tmp_path / "cl")],
                          f"{drift}: system drift"),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert field in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["bnb", "reach"])
    def test_zonotope_without_generators_names_file(self, tanh_file, tmp_path,
                                                    capsys, command):
        zono = tmp_path / "zono.json"
        zono.write_text('{"G": [[], []], "center": [2.5, 0.0]}')
        extra = ["--direction", "1,0"] if command == "bnb" else []
        assert main([command, "--network", tanh_file, *extra, "--zonotope",
                     str(zono)]) == 1
        err = capsys.readouterr().err
        assert f"{zono}: zonotope G of shape (2, 0) has no generator" in err

    @pytest.mark.parametrize("which, text", [
        ("system", b'{"A": 5, "B": [[0.5], [1.0]], "T": 5}'),
        ("system", b'{"A": [[1.0, 1.0], [0.0, 1.0]], "B": 5, "T": 5}'),
        ("system", b'{"A": [[1.0, 1.0], [0.0, 1.0]], "B": [0.5, 1.0], '
                   b'"T": 5}'),
        ("controller", b'{"layers": 5}'),
        ("controller", b'{"layers": null}'),
        ("system", b'{"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[0.5], [1.0]], '
                   b'"T": 5, "note": "\xff"}'),
    ], ids=["A-scalar", "B-scalar", "B-vector", "layers-int", "layers-null",
            "not-utf8"])
    def test_malformed_file_named_without_traceback(self, di_files, tmp_path,
                                                    capsys, which, text):
        system, ctrl, hexagon = di_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        files = {"system": system, "controller": ctrl, which: str(bad)}
        code = main(["closedloop", "--system", files["system"],
                     "--controller", files["controller"], "--zonotope",
                     hexagon, "--out-dir", str(tmp_path / "cl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}:")
        assert "Traceback" not in err

    def test_closedloop_zero_steps_rejected(self, di_files, tmp_path, capsys):
        system, ctrl, hexagon = di_files
        out_dir = tmp_path / "cl"
        code = main(["closedloop", "--system", system, "--controller", ctrl,
                     "--zonotope", hexagon, "--steps", "0",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert "at least one step" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_closedloop_pca_zero_rejected_like_reach(self, tanh_file,
                                                     di_files, tmp_path,
                                                     capsys):
        # reach draws pca:N samples, so pca:0 is too few; closedloop draws
        # none, so any count is refused, with the reason
        system, ctrl, hexagon = di_files
        assert main(["reach", "--network", tanh_file, "--box=-1..1,-1..1",
                     "--dirs", "pca:0"]) == 1
        assert "need more samples" in capsys.readouterr().err
        out_dir = tmp_path / "cl"
        for dirs in ("pca:0", "pca:5"):
            assert main(["closedloop", "--system", system, "--controller",
                         ctrl, "--zonotope", hexagon, "--steps", "1",
                         "--dirs", dirs, "--out-dir", str(out_dir)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: --dirs {dirs}: ")
            assert "draws no samples" in err and "--dirs pca " in err
            assert not out_dir.exists()

    def test_closedloop_hull_with_pca_count_rejected(self, di_files,
                                                     tmp_path, capsys):
        # --dirs pca asks for the PCA box's faces alone, and --hull builds no
        # PCA box
        system, ctrl, hexagon = di_files
        out_dir = tmp_path / "cl"
        code = main(["closedloop", "--system", system, "--controller", ctrl,
                     "--zonotope", hexagon, "--steps", "1", "--hull",
                     "--dirs", "pca", "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "--hull" in err and "--dirs pca" in err
        assert not out_dir.exists()

    def test_closedloop_pca_gives_the_box_faces_alone(self, di_files,
                                                      di_controller,
                                                      tmp_path):
        system, ctrl, hexagon = di_files
        out_dir = tmp_path / "cl"
        assert main(["closedloop", "--system", system, "--controller", ctrl,
                     "--zonotope", hexagon, "--steps", "2", "--eps-t", "1e-2",
                     "--dirs", "pca", "--out-dir", str(out_dir)]) == 0
        sys_model = load_system(system, di_controller)
        trace = reach.closed_loop_reach(sys_model, load_zonotope(hexagon),
                                        None, 1e-2, steps=2)
        for t, (poly, _) in enumerate(trace, start=1):
            written = (out_dir / f"step{t:03d}.json").read_text()
            assert written == dumps17(polytope_to_dict(poly)) + "\n"
            assert len(json.loads(written)["faces"]) == 4

    @pytest.mark.parametrize("flag, value", [("--sim-points", "-1"),
                                             ("--dirs", "uniform:x"),
                                             ("--dirs", "pca:x")])
    def test_closedloop_bad_count_names_flag(self, di_files, tmp_path, capsys,
                                             flag, value):
        system, ctrl, hexagon = di_files
        out_dir = tmp_path / "cl"
        code = main(["closedloop", "--system", system, "--controller", ctrl,
                     "--zonotope", hexagon, "--steps", "1", flag, value,
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and flag in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_audit_samples_below_one_names_flag(self, tanh_file, monkeypatch,
                                                capsys, samples):
        # rejected before the solve, which must not run
        def no_solve(*args, **kwargs):
            raise AssertionError("audit solved before checking --samples")

        monkeypatch.setattr("curvreach.bnb.solve", no_solve)
        code = main(["audit", "--network", tanh_file, "--direction", "1,0",
                     "--box=-1..1,-1..1", "--samples", samples])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--samples" in err

    @pytest.mark.parametrize("command", ["bnb", "reach", "closedloop", "audit"])
    def test_lipschitz_flag_rejected(self, tanh_file, di_files, tmp_path,
                                     capsys, command):
        # the solver has one Lipschitz recipe, so there is nothing to choose
        system, ctrl, hexagon = di_files
        box = ["--box=-1..1,-1..1"]
        argv = {
            "bnb": ["bnb", "--network", tanh_file, "--direction", "1,0", *box],
            "reach": ["reach", "--network", tanh_file, *box],
            "closedloop": ["closedloop", "--system", system, "--controller",
                           ctrl, "--zonotope", hexagon, "--steps", "1",
                           "--out-dir", str(tmp_path / "cl")],
            "audit": ["audit", "--network", tanh_file, "--direction", "1,0",
                      *box, "--samples", "10"],
        }[command]
        assert main([*argv, "--lipschitz", "liplt"]) == 1
        assert "--lipschitz" in capsys.readouterr().err

    def test_root_constants_flag_rejected(self, tanh_file, capsys):
        # every node gets fresh certificates; root reuse is gone
        code = main(["bnb", "--network", tanh_file, "--direction", "1,0",
                     "--box=-1..1,-1..1", "--root-constants"])
        assert code == 1
        assert "--root-constants" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bnb", "reach", "closedloop"])
    def test_box_and_zonotope_exclusive(self, di_files, tmp_path, capsys,
                                        command):
        # neither input set may silently win over the other
        system, ctrl, hexagon = di_files
        out_dir = tmp_path / "cl"
        argv = {
            "bnb": ["bnb", "--network", ctrl, "--direction", "1"],
            "reach": ["reach", "--network", ctrl],
            "closedloop": ["closedloop", "--system", system, "--controller",
                           ctrl, "--steps", "1", "--out-dir", str(out_dir)],
        }[command]
        code = main([*argv, "--box=2.3..2.7,-0.2..0.2", "--zonotope",
                     hexagon])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "--box" in err and "--zonotope" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("sweeps, code", [("-5", 1), ("0", 0)])
    def test_lipschitz_negative_sweeps_names_flag(self, tanh_file, capsys,
                                                  sweeps, code):
        # zero sweeps is the unrefined transform; fewer is malformed
        assert main(["lipschitz", "--network", tanh_file, "--box=-1..1,-1..1",
                     "--method", "liplt-refine", "--sweeps", sweeps]) == code
        err = capsys.readouterr().err
        assert ("--sweeps" in err) == (code == 1)

    def test_overflowing_weights_name_the_cause(self, tmp_path, capsys):
        # weights of 1e200 in a 2-4-1 tanh net overflow the Lipschitz chain
        from curvreach.model import Activation, Layer, Network
        signs = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        path = tmp_path / "huge.json"
        save_network(Network((
            Layer(1e200 * signs, np.zeros(4), Activation.TANH),
            Layer(1e200 * signs[:, :1].T, np.zeros(1), None))), path)
        code = main(["bnb", "--network", str(path), "--direction", "1",
                     "--box=-1..1,-1..1", "--eps-t", "1e-3"])
        assert code == 1
        assert "overflow the Lipschitz chain" in capsys.readouterr().err

    def test_bnb_over_a_zonotope(self, tanh_file, di_files, tmp_path):
        # the bracket of bnb.solve_zonotope, bit for bit
        _, _, hexagon = di_files
        out = tmp_path / "bnb.json"
        code = main(["bnb", "--network", tanh_file, "--direction", "1,-1",
                     "--zonotope", hexagon, "--eps-t", "1e-3",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        zono = load_zonotope(hexagon)
        ref = bnb.solve_zonotope(
            ScalarObjective(scalarize(load_network(tanh_file),
                                      np.array([1.0, -1.0]))),
            zono.G, zono.center, cfg=bnb.BnBConfig(eps_t=1e-3))
        assert ref.status == data["status"] == "Converged"
        assert (data["lb"], data["ub"]) == (ref.lb, ref.ub)
        assert data["witness"] == ref.witness.tolist()
        assert data["branches_processed"] == ref.branches_processed

    @pytest.mark.parametrize("box, direction, cause", [
        ("--box=a..1,-1..1", "1,0", "bad box range 'a..1'"),
        ("--box=-1..1", "1,0", "box has 1 dims, expected 2"),
        ("--box=-1..1,-1..1", "1,x",
         "bad vector '1,x'; expected comma-separated floats"),
        ("--box=-1..1,-1..1", "1", "vector has 1 entries, expected 2"),
    ], ids=["box-not-numeric", "box-dims", "direction-not-numeric",
            "direction-length"])
    def test_bad_box_or_direction_names_it(self, tanh_file, capsys, box,
                                           direction, cause):
        code = main(["bnb", "--network", tanh_file, "--direction", direction,
                     box])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cause}\n"

    def test_zonotope_of_wrong_dimension(self, tanh_file, tmp_path, capsys):
        zono = tmp_path / "zono3.json"
        zono.write_text(json.dumps({"G": np.eye(3).tolist(),
                                    "center": [0.0, 0.0, 0.0]}))
        code = main(["bnb", "--network", tanh_file, "--direction", "1,0",
                     "--zonotope", str(zono)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: zonotope has 3 dims, expected 2\n"

    @pytest.mark.parametrize("dirs, outputs, cause", [
        ("uniform:-1", 2, "uniform needs a nonnegative count"),
        ("uniform:8", 3, "uniform templates need a 2-D output space"),
        ("spiral", 2, "unknown template 'spiral'"),
    ], ids=["negative-count", "not-2d", "unknown"])
    def test_bad_template_names_the_cause(self, tmp_path, capsys, dirs,
                                          outputs, cause):
        net = tmp_path / "net.json"
        save_network(make_net([2, 6, outputs], seed=6000), net)
        code = main(["reach", "--network", str(net), "--box=-1..1,-1..1",
                     "--dirs", dirs])
        assert code == 1
        assert cause in capsys.readouterr().err

    def test_branch_limit_exit_2(self, tanh_file, capsys):
        code = main(["bnb", "--network", tanh_file, "--direction", "1,0",
                     "--box=-1..1,-1..1", "--eps-t", "1e-12",
                     "--max-branches", "9"])
        assert code == 2

    def test_exhausted_heap_exit_2(self, tmp_path, capsys):
        # the root's edges, 9e-14, are below the split threshold and its gap
        # is above eps_t: the heap empties after one node, well within the
        # budget, and the run stops with status Exhausted, not BranchLimit.
        # The net ignores x_1, so the root cannot collapse to a point
        net = tmp_path / "deep.json"
        save_network(blind_to_input(
            make_net([2, 16, 16, 1], seed=11, scale=3.0), 1), net)
        lo = [0.3, -0.2]
        hi = (np.array(lo) + 9e-14).tolist()
        box = ",".join(f"{a!r}..{b!r}" for a, b in zip(lo, hi))
        out = tmp_path / "bnb.json"
        code = main(["bnb", "--network", str(net), "--direction", "1",
                     f"--box={box}", "--eps-t", "1e-300", "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["status"] == "Exhausted"
        assert data["branches_processed"] == 1

    def test_closedloop_budget_stop_exit_2(self, monkeypatch, tmp_path,
                                          capsys):
        # all 8 faces of the step, the template's 4 axes and the PCA box's 4,
        # stop at a budget of one branch: like reach, the run exits 2, and
        # its summary lists every face as unconverged.  The box is wide
        # enough that no root has a monotone axis, so none collapses to a
        # point that converges at once
        calls = monotone_calls(monkeypatch)
        out = tmp_path / "summary.json"
        code = main(["closedloop", "--system", str(DATA / "di_system.json"),
                     "--controller", str(DATA / "di_controller.json"),
                     "--box=1..4,-1.5..1.5",
                     "--steps", "1", "--eps-t", "1e-12", "--max-branches",
                     "1", "--out-dir", str(tmp_path / "run"),
                     "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["flagged_faces"] == []
        assert data["unconverged_faces"] == [[1, i] for i in range(8)]
        assert calls and not any(mono.any() for _, mono in calls)

    @staticmethod
    def fail_numerically(monkeypatch, row):
        """Every linear bound of a stack that holds a box away from the root
        of the direction whose output row is ``row`` raises."""
        real = bnb._Bounder._linear_bound

        def failing(self, obj, cert, center, r):
            ours = (obj.net.layers[-1].weight[:, 0, :] == row).all(axis=-1)
            if np.any(ours & np.any(center != 0.0, axis=-1)):
                raise FloatingPointError("injected")
            return real(self, obj, cert, center, r)

        monkeypatch.setattr(bnb._Bounder, "_linear_bound", failing)

    def test_reach_flagged_face_listed_exit_2(self, monkeypatch, tmp_path,
                                              capsys):
        # only the failing direction's boxes are flagged; each of its nodes
        # is split again, so its solve also ends at the budget
        net = make_net([2, 6, 2], seed=4600, scale=2.0)
        path = tmp_path / "net.json"
        save_network(net, path)
        bad = 2
        self.fail_numerically(monkeypatch, reach.uniform_directions(6)
                              .directions[bad] @ net.layers[-1].weight)
        out = tmp_path / "poly.json"
        code = main(["reach", "--network", str(path), "--box=-1..1,-1..1",
                     "--dirs", "uniform:6", "--eps-t", "1e-2",
                     "--max-branches", "200", "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["flagged_faces"] == [bad]
        assert bad in data["unconverged_faces"]

    def test_closedloop_flagged_face_listed_exit_2(self, monkeypatch,
                                                   tmp_path, capsys):
        # face 1 is the axis direction e2, whose output row is (e2 B) W_L.
        # Over the shipped hexagon its root collapses onto a vertex and
        # converges; over the hexagon scaled by 10 it branches
        system = load_system(DATA / "di_system.json",
                             load_network(DATA / "di_controller.json"))
        self.fail_numerically(monkeypatch, np.array([0.0, 1.0]) @ system.B
                              @ system.controller.layers[-1].weight)
        hexagon = load_zonotope(DATA / "di_hexagon.json")
        wide = tmp_path / "hex10.json"
        wide.write_text(json.dumps({"G": (10.0 * hexagon.G).tolist(),
                                    "center": hexagon.center.tolist()}))
        out = tmp_path / "summary.json"
        code = main(["closedloop", "--system", str(DATA / "di_system.json"),
                     "--controller", str(DATA / "di_controller.json"),
                     "--zonotope", str(wide),
                     "--steps", "1", "--eps-t", "1e-3", "--max-branches",
                     "200", "--out-dir", str(tmp_path / "run"),
                     "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["flagged_faces"] == [[1, 1]]
        assert [1, 1] in data["unconverged_faces"]


def test_no_handler_catches_every_exception():
    # a failure raises a typed error or falls back in a documented, sound
    # way: no handler of the package catches Exception, BaseException or
    # everything
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted(Path(curvreach.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(t is None or getattr(t, "id", None) in broad
                   for t in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


class TestLipschitzCommand:
    def test_json_fields(self, tanh_file, tmp_path, capsys):
        out = tmp_path / "lip.json"
        code = main(["lipschitz", "--network", tanh_file,
                     "--box=-1..1,-1..1", "--norm", "2",
                     "--method", "liplt", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"method", "p", "L_total", "L_subnet"}
        assert data["L_total"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert "wall_time_s" in printed

    def test_inf_norm(self, tanh_file, tmp_path):
        out = tmp_path / "lip.json"
        code = main(["lipschitz", "--network", tanh_file,
                     "--box=-1..1,-1..1", "--norm", "inf", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["p"] == "inf" and data["L_total"] > 0

    def test_unsupported_norm_named(self, tanh_file, capsys):
        code = main(["lipschitz", "--network", tanh_file,
                     "--box=-1..1,-1..1", "--norm", "3"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: unsupported norm '3'; use 2 or inf\n"

    def test_methods_ordered(self, tanh_file, tmp_path):
        vals = {}
        for method in ("naive", "liplt", "liplt-refine"):
            out = tmp_path / f"{method}.json"
            main(["lipschitz", "--network", tanh_file, "--box=-1..1,-1..1",
                  "--norm", "2", "--method", method, "--sweeps", "5",
                  "--out", str(out)])
            vals[method] = json.loads(out.read_text())["L_total"]
        assert vals["liplt"] <= vals["naive"] + 1e-12
        assert vals["liplt-refine"] <= vals["liplt"] + 1e-12


class TestHessianCommand:
    def test_matrix_kind_for_two_layer(self, tanh_file, tmp_path):
        out = tmp_path / "h.json"
        code = main(["hessian", "--network", tanh_file, "--box=-1..1,-1..1",
                     "--direction", "1,-1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "matrix"
        M = np.array(data["M"])
        N = np.array(data["N"])
        assert np.linalg.eigvalsh(M - N).min() >= -1e-9
        # N <= fd_hessian(x) <= M in the Loewner order at points of the box
        from curvreach import oracle
        from curvreach.model import ScalarObjective, scalarize
        obj = ScalarObjective(scalarize(load_network(tanh_file),
                                        np.array([1.0, -1.0])))
        for x in ([0.0, 0.0], [0.9, -0.9], [-0.5, 0.7], [0.95, 0.95]):
            H = oracle.fd_hessian(obj.value, np.array(x))
            assert np.linalg.eigvalsh(M - H).min() >= -1e-6
            assert np.linalg.eigvalsh(H - N).min() >= -1e-6
        # the bits of this seeded net's pair, so that a refactor that moves
        # them fails here
        assert [[v.hex() for v in row] for row in data["M"]] == [
            ["0x1.4916f32ea5588p-1", "-0x1.fd3bbd6a60ee3p-2"],
            ["-0x1.fd3bbd6a60ee3p-2", "0x1.ae2d825b179ebp-1"]]
        assert [[v.hex() for v in row] for row in data["N"]] == [
            ["-0x1.4970b27326045p-1", "0x1.fe74a20527eb9p-2"],
            ["0x1.fe74a20527eb9p-2", "-0x1.b09b3b46c3a31p-1"]]

    def test_scalar_kind(self, tanh_file, tmp_path):
        out = tmp_path / "h.json"
        code = main(["hessian", "--network", tanh_file, "--box=-1..1,-1..1",
                     "--direction", "1,-1", "--scalar-only",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "scalar"
        assert data["lambda"] >= 0


    def test_interval_next_to_lambda_for_deep_nets(self, tmp_path):
        # depth 3: the FD Hessian at the box centre lies in [H_lo, H_hi]
        from curvreach import oracle
        from curvreach.model import ScalarObjective, scalarize
        net = make_net([2, 6, 5, 2], seed=6100)
        path = tmp_path / "deep.json"
        save_network(net, path)
        out = tmp_path / "h.json"
        code = main(["hessian", "--network", str(path),
                     "--box=-0.5..1,-1..0.25", "--direction", "1,-1",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "scalar" and data["lambda"] >= 0
        h_lo, h_hi = np.array(data["H_lo"]), np.array(data["H_hi"])
        assert h_lo.shape == h_hi.shape == (2, 2)
        obj = ScalarObjective(scalarize(net, np.array([1.0, -1.0])))
        H = oracle.fd_hessian(obj.value, np.array([0.25, -0.375]))
        assert (h_lo - 1e-6 <= H).all() and (H <= h_hi + 1e-6).all()

    def test_no_interval_for_two_layer_scalar_only(self, tanh_file, tmp_path):
        out = tmp_path / "h.json"
        main(["hessian", "--network", tanh_file, "--box=-1..1,-1..1",
              "--direction", "1,-1", "--scalar-only", "--out", str(out)])
        assert set(json.loads(out.read_text())) == {"kind", "lambda"}


class TestReachCommand:
    def test_polytope_faces(self, tanh_file, tmp_path):
        out = tmp_path / "poly.json"
        code = main(["reach", "--network", tanh_file, "--box=-1..1,-1..1",
                     "--dirs", "uniform:8", "--eps-t", "1e-2",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["faces"]) == 8
        for face in data["faces"]:
            assert set(face) == {"c", "d", "lb"}
            assert face["lb"] <= face["d"] + 1e-12


class TestClosedLoopCommand:
    def test_emits_step_files_and_csvs(self, di_files, tmp_path):
        system, ctrl, zono = di_files
        out_dir = tmp_path / "run"
        code = main(["closedloop", "--system", system, "--controller", ctrl,
                     "--zonotope", zono, "--eps-t", "5e-2", "--steps", "5",
                     "--sim-points", "200", "--out-dir", str(out_dir)])
        assert code == 0
        step_files = sorted(out_dir.glob("step*.json"))
        assert len(step_files) == 5
        faces = (out_dir / "faces.csv").read_text().strip().splitlines()
        assert len(faces) == sum(
            len(json.loads(p.read_text())["faces"]) for p in step_files)
        # the step-t rows of faces.csv are the faces of step{t:03d}.json
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in faces])
        for t in range(1, 6):
            data = json.loads((out_dir / f"step{t:03d}.json").read_text())
            expected = [f["c"] + [f["d"]] for f in data["faces"]]
            assert rows[rows[:, 0] == t][:, 1:].tolist() == expected, t
        assert set(rows[:, 0]) == set(range(1, 6))
        traj = (out_dir / "trajectories.csv").read_text().strip().splitlines()
        assert len(traj) == 6 * 200  # steps+1 rows of 200 points
        # simulated next states always live inside the emitted polytopes
        cloud = np.array([[float(v) for v in line.split(",")]
                          for line in traj])
        for t, path in enumerate(step_files, start=1):
            data = json.loads(path.read_text())
            C = np.array([f["c"] for f in data["faces"]])
            d = np.array([f["d"] for f in data["faces"]])
            pts = cloud[cloud[:, 0] == t][:, 1:]
            assert ((pts @ C.T) - d).max() <= 1e-9


class TestAuditCommand:
    def test_sound_report(self, tanh_file, tmp_path):
        out = tmp_path / "audit.json"
        code = main(["audit", "--network", tanh_file, "--direction", "1,0",
                     "--box=-1..1,-1..1", "--eps-t", "1e-2",
                     "--samples", "2000", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["sound"] is True
        quantities = {r["quantity"] for r in data["oracle_reports"]}
        assert quantities == {"grid_max", "sampled_lipschitz"}


    @pytest.mark.parametrize("n, lattice", [(6, 64), (12, 0), (16, 0),
                                            (24, 0)])
    def test_lattice_within_samples(self, monkeypatch, tmp_path, n,
                                    lattice):
        # the widest lattice of k**n <= --samples points; none where k < 2.
        # The stub builds no lattice, since one of 2**24 points takes 3 GiB
        net = tmp_path / "linear.json"
        save_network(linear_net(np.ones((1, n))), net)
        sizes = []

        def grid_max(fn, lo, hi, n_per_axis=0, n_random=0, seed=0):
            sizes.append(n_per_axis ** n if n_per_axis >= 2 else 0)
            center = (lo + hi) / 2.0
            return float(fn(center[None])[0]), center

        monkeypatch.setattr(oracle, "grid_max", grid_max)
        code = main(["audit", "--network", str(net), "--direction", "1",
                     "--box=" + ",".join(["-1..1"] * n), "--samples", "100"])
        assert code == 0
        assert sizes == [lattice]

    def test_box_required_and_no_zonotope_offered(self, tanh_file, capsys):
        assert main(["audit", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--box" in help_text and "--zonotope" not in help_text
        assert main(["audit", "--network", tanh_file,
                     "--direction", "1,0"]) == 1
        assert "--box" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_outputs(self, tanh_file, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"run{k}.json"
            code = main(["bnb", "--network", tanh_file, "--direction", "1,0",
                         "--box=-1..1,-1..1", "--eps-t", "1e-3",
                         "--seed", "3", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fresh_processes_and_one_blas_thread(self, tmp_path):
        # a seeded 6-64-1 tanh net solved to a node budget: which nodes a
        # capped solve expands depends on the last bits of every bound, so
        # its --out file must not depend on the process it runs in, nor on
        # the BLAS thread count of the matmuls; exit code 2 is the budget
        # stop
        net = tmp_path / "tl.json"
        save_network(two_layer_net(1), net)
        args = ["bnb", "--network", str(net), "--direction", "1",
                "--box=" + ",".join(["-1..1"] * 6), "--eps-t", "1e-9",
                "--max-branches", "500", "--out"]
        outs = [tmp_path / f"bnb-{run}.json" for run in ("main", "a", "b")]
        assert main(args + [str(outs[0])]) == 2
        # the fresh processes import the package imported here
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        root = str(Path(curvreach.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [root, env.get("PYTHONPATH")]))
        for out, extra in zip(outs[1:], ({}, {"OPENBLAS_NUM_THREADS": "1"})):
            proc = subprocess.run(
                [sys.executable, "-m", "curvreach.cli"] + args + [str(out)],
                env={**env, **extra}, capture_output=True, text=True)
            assert proc.returncode == 2, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes() \
            == outs[2].read_bytes()

    def test_float_round_trip(self):
        vals = {"a": 1.0 / 3.0, "b": [np.pi, 2.0 ** -52, 1e308]}
        text = dumps17(vals)
        back = json.loads(text)
        assert back["a"] == vals["a"]
        assert back["b"] == vals["b"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digit_floats_round_trip(self, x):
        assert json.loads(dumps17({"x": x}))["x"] == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps17({"x": float("inf")})


class TestParsing:
    def test_parse_box(self):
        box = parse_box("-1..1,-0.5..0.5")
        assert np.allclose(box.lo, [-1.0, -0.5])
        assert np.allclose(box.hi, [1.0, 0.5])

    def test_parse_box_errors(self):
        with pytest.raises(ValueError):
            parse_box("1..-1")
        with pytest.raises(ValueError):
            parse_box("0:1")

    def test_ragged_arrays_name_the_file(self, di_controller, tmp_path):
        zono = tmp_path / "zono.json"
        zono.write_text('{"G": [[0.1, 0.0], [0.0]], "center": [0.0, 0.0]}')
        with pytest.raises(ValueError, match="zono.json: zonotope JSON"):
            load_zonotope(zono)
        system = tmp_path / "system.json"
        system.write_text('{"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [1.0]],'
                          ' "T": 1, "c": [[0.0], 1.0]}')
        with pytest.raises(ValueError, match="system.json: system JSON"):
            load_system(system, di_controller)

    @pytest.mark.parametrize("horizon", ["1e400", "2.7", "0", "true"])
    def test_system_horizon_must_be_whole(self, di_controller, tmp_path,
                                          horizon):
        # 1e400 parses as inf; 2.7 must not run 2 steps; 0 must name the file;
        # true is a bool, not a 1-step horizon
        system = tmp_path / "system.json"
        system.write_text('{"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [1.0]],'
                          f' "T": {horizon}}}')
        with pytest.raises(ValueError, match="system.json: system T"):
            load_system(system, di_controller)

    def test_network_round_trip(self, tmp_path):
        net = make_net([2, 4, 1], seed=6100)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert network_to_dict(back) == network_to_dict(net)
