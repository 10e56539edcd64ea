import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import gapforge as gf
from gapforge import oracles
from gapforge.cli import main
from gapforge.errors import NotPrimeError
from gapforge.generators import random_cnf3
from gapforge.pipeline import _certified_code, smallest_workable_prime


_SETCOVER = {"universe": 2, "collections": [[[0]], [[1]]]}
_MEMBER = ["setcover", "member", "--instance", "{doc}", "--code", "{code}", "--i", "0"]
_F_ZERO = ",".join(["0"] * 9)


def triangle():
    return gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)])


class TestWonePipeline:
    def test_triangle_yes(self):
        report = gf.wone_pipeline(triangle(), 3, 5)
        assert report.verdict == "YES"
        assert report.value_after == 1
        assert report.code_q == 5 and report.code_r == 3

    def test_five_cycle_no(self):
        c5 = gf.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        report = gf.wone_pipeline(c5, 3, 5)
        assert report.verdict == "NO"
        assert report.value_after <= Fraction(2, 5)  # 1 - (1 - 3/5)
        assert report.gap >= report.delta_exact >= report.delta_bound

    def test_vacuous_gap_flag(self):
        report = gf.wone_pipeline(triangle(), 3, 3)  # q = t makes 1 - r/q = 0
        assert report.vacuous_gap
        assert report.verdict == "YES"

    def test_decided_no(self):
        path = gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (1, 2)])
        report = gf.wone_pipeline(path, 3)
        assert report.verdict == "NO"
        assert report.decided_no
        assert report.exit_code == 1

    def test_default_prime_choice(self):
        assert smallest_workable_prime(3, 5) == 5
        assert smallest_workable_prime(2, 2) == 3
        # q**t must reach the largest right super-node
        assert smallest_workable_prime(3, 256) == 7

    def test_exit_codes(self):
        yes = gf.wone_pipeline(triangle(), 3)
        assert yes.exit_code == 0


class TestEthPipeline:
    def test_sat_yes(self):
        report = gf.eth_pipeline(gf.Cnf3(2, ((1,), (2,))), 2)
        assert report.verdict == "YES"

    def test_contradiction_no(self):
        report = gf.eth_pipeline(gf.Cnf3(1, ((1,), (-1,))), 2, 3)
        assert report.verdict == "NO"
        # t = 1 here, so the composed value stays below t/q
        assert report.value_after <= Fraction(1, 3)

    def test_eight_var_unsat(self):
        # forced chain x1 -> ... -> x8 closed by (not x8 or not x1); every
        # variable occurs in at most 3 clauses
        clauses = [(1,)] + [(-v, v + 1) for v in range(1, 8)] + [(-8, -1)]
        cnf = gf.Cnf3(8, tuple(clauses))
        assert not oracles.cnf_satisfiable(cnf)
        report = gf.eth_pipeline(cnf, 2, 5)
        assert report.verdict == "NO"
        assert report.gap is not None
        assert report.gap >= report.delta_exact

    def test_report_json_shape(self):
        doc = gf.eth_pipeline(gf.Cnf3(2, ((1,), (2,))), 2).to_json()
        assert doc["verdict"] == "YES"
        assert doc["code"]["q"] >= 3
        assert any(s["name"] == "frontend" for s in doc["stages"])


class TestCodeCache:
    @pytest.mark.parametrize("q,r", [(3, 2), (5, 2), (5, 3), (7, 3)])
    def test_cached_pair_matches_fresh_code(self, q, r):
        code, delta = _certified_code(q, r)
        fresh = gf.reed_solomon(q, r)
        assert code.table() == fresh.table()
        assert delta == gf.relative_distance(fresh, method="pairs").delta
        assert _certified_code(q, r)[0] is code

    def test_reports_repeat(self):
        def without_times(report):
            return replace(report, stages=tuple((s.name, s.sizes) for s in report.stages))

        _certified_code.cache_clear()
        rng = random.Random(5)
        graphs = [triangle(), gf.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])]
        for graph in graphs:
            first = gf.wone_pipeline(graph, 3)
            assert without_times(gf.wone_pipeline(graph, 3)) == without_times(first)
        for _ in range(6):
            cnf = random_cnf3(rng, max_vars=6)
            first = gf.eth_pipeline(cnf, 2)
            assert without_times(gf.eth_pipeline(cnf, 2)) == without_times(first)
        assert _certified_code.cache_info().hits > 0

    def test_bad_override_raises_every_time(self):
        cached = _certified_code.cache_info().currsize
        for _ in range(2):
            with pytest.raises(NotPrimeError):
                gf.wone_pipeline(triangle(), 3, 4)
        assert _certified_code.cache_info().currsize == cached

    def test_cache_is_bounded(self):
        maxsize = _certified_code.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0


class TestCli:
    def test_code_rs_and_measure(self, tmp_path, capsys):
        path = tmp_path / "rs.json"
        assert main(["code", "rs", "--q", "3", "--r", "2", "-o", str(path)]) == 0
        assert main(["code", "measure", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == "2/3"
        assert doc["collision_number"] == 3
        assert doc["lower_bound"] == 3 and doc["upper_bound"] == 4

    def test_code_random_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["code", "random", "--q", "4", "--r", "2", "--ell", "8",
                     "--seed", "3", "-o", str(path)]) == 0
        code = gf.code_from_json(json.loads(path.read_text()))
        assert code.table() == gf.random_code(4, 2, 8, 3).table()

    def test_threshold_export(self, tmp_path, capsys):
        code_path = tmp_path / "rs.json"
        main(["code", "rs", "--q", "3", "--r", "2", "-o", str(code_path)])
        out_path = tmp_path / "edges.json"
        assert main(["threshold", "--code", str(code_path), "--t", "2",
                     "--export", str(out_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a_part_size"] == 9 and doc["b_parts"] == 2
        edges = json.loads(out_path.read_text())["edges"]
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        assert len(edges) == g.num_b * g.ell * 3  # q**(t-1) neighbors per (b, i)

    def test_maxcover_solve_compose_certify(self, tmp_path, capsys):
        inst = gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (1, 3)])
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(gf.maxcover_to_json(inst)))
        code_path = tmp_path / "rs.json"
        main(["code", "rs", "--q", "3", "--r", "2", "-o", str(code_path)])
        capsys.readouterr()

        assert main(["maxcover", "solve", str(inst_path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0"

        assert main(["maxcover", "compose", "--instance", str(inst_path),
                     "--code", str(code_path), "--materialize"]) == 0
        composed_doc = json.loads(capsys.readouterr().out)
        composed = gf.maxcover_from_json(composed_doc)
        assert gf.maxcover_value(composed).value == Fraction(1, 3)

        assert main(["maxcover", "certify", "--instance", str(inst_path),
                     "--code", str(code_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "soundness_ok"

    def test_setcover_commands(self, tmp_path, capsys):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        inst_path = tmp_path / "sc.json"
        inst_path.write_text(json.dumps(gf.setcover_to_json(base)))
        code_path = tmp_path / "rs.json"
        main(["code", "rs", "--q", "3", "--r", "2", "-o", str(code_path)])
        capsys.readouterr()

        assert main(["setcover", "solve", str(inst_path), "--cap", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_cover_size"] == 2 and doc["partitioned_cover_exists"]

        assert main(["setcover", "certify", "--instance", str(inst_path),
                     "--code", str(code_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "completeness_ok"

        f = ",".join(["1"] * 9)
        assert main(["setcover", "member", "--instance", str(inst_path),
                     "--code", str(code_path), "--i", "0", "--f", f,
                     "--set", "1,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] is True  # f maps everything to element 1 in {1}

    def test_from_cnf_and_pipeline(self, tmp_path, capsys):
        cnf_path = tmp_path / "f.cnf"
        cnf_path.write_text("p cnf 2 2\n1 0\n2 0\n")
        assert main(["from-cnf", str(cnf_path), "--k", "2"]) == 0
        inst = gf.maxcover_from_json(json.loads(capsys.readouterr().out))
        assert gf.maxcover_value(inst).value == 1

        assert main(["pipeline", "eth", "--cnf", str(cnf_path), "--k", "2",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "YES"

        unsat_path = tmp_path / "u.cnf"
        unsat_path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["pipeline", "eth", "--cnf", str(unsat_path), "--k", "2"]) == 1

    def test_from_graph_and_pipeline(self, tmp_path, capsys):
        graph_path = tmp_path / "tri.txt"
        graph_path.write_text("0 1\n0 2\n1 2\npart 0 0\npart 1 1\npart 2 2\n")
        assert main(["from-graph", str(graph_path), "--t", "3"]) == 0
        inst = gf.maxcover_from_json(json.loads(capsys.readouterr().out))
        assert gf.maxcover_value(inst).value == 1

        assert main(["pipeline", "wone", "--graph", str(graph_path),
                     "--t", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "YES" and doc["code"]["q"] == 5

        path_path = tmp_path / "path.txt"
        path_path.write_text("0 1\n1 2\npart 0 0\npart 1 1\npart 2 2\n")
        assert main(["from-graph", str(path_path), "--t", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["decided"] == "NO"
        assert main(["pipeline", "wone", "--graph", str(path_path), "--t", "3"]) == 1

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["code", "measure", str(tmp_path / "missing.json")]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "gapforge-v1", "q": 4, "r": 2,
                                   "ell": 2, "kind": "reed_solomon",
                                   "table": [[0, 0]]}))
        assert main(["code", "measure", str(bad)]) == 3

    @pytest.mark.parametrize("content", [b"not json", b'{"q": 3,,}', b"\xff\xfe{"])
    def test_unreadable_json_exit_code(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["maxcover", "solve", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_json_no_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        src = Path(gf.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "gapforge.cli", "maxcover", "solve", str(bad)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv,doc", [
        (_MEMBER + ["--f", "0,x", "--set", "0,0"], _SETCOVER),
        (_MEMBER + ["--f", _F_ZERO, "--set", "0"], _SETCOVER),
        (_MEMBER + ["--f", _F_ZERO, "--set", "5,0"], _SETCOVER),
        (["setcover", "solve", "{doc}", "--cap", "2"],
         {"universe": 2, "collections": [[["x"]], [[1]]]}),
        (["setcover", "solve", "{doc}", "--cap", "2"],
         {"universe": 2, "collections": [[0], [[1]]]}),
        (["setcover", "solve", "{doc}", "--cap", "2"], [_SETCOVER]),
        (["maxcover", "solve", "{doc}"], [1, 2]),
        (["maxcover", "solve", "{doc}"],
         {"k": 1, "t": 1, "v_parts": [1], "w_parts": [1], "edges": [[0]]}),
        (["code", "measure", "{doc}"],
         {"q": 2, "r": 1, "ell": 2, "kind": "explicit", "table": [[0, 0], [1, "1"]]}),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, argv, doc):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        code_path = tmp_path / "rs.json"
        code_path.write_text(json.dumps(gf.code_to_json(gf.reed_solomon(3, 2))))
        argv = [a.format(doc=doc_path, code=code_path) for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["code", "measure", "{code}"], ["threshold", "--code", "{code}", "--t", "2"],
    ])
    @pytest.mark.parametrize("field", [
        {"kind": ["x"]}, {"kind": "weird"}, {"seed": "3"},
    ])
    def test_bad_code_kind_or_seed_exit_code(self, tmp_path, capsys, argv, field):
        code_path = tmp_path / "code.json"
        doc = gf.code_to_json(gf.random_code(3, 1, 4, 0))
        code_path.write_text(json.dumps({**doc, **field}))
        assert main([a.format(code=code_path) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,exit_code", [(["--help"], 0), ([], 3)])
    def test_python_dash_m(self, argv, exit_code):
        src = Path(gf.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "gapforge", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == exit_code
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        [], ["setcover", "certify", "--code", "rs.json"], ["code", "rs", "--q", "x", "--r", "2"],
    ])
    def test_usage_error_exit_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["setcover", "certify", "--help"])
        assert exc.value.code == 0
        assert "--instance" in capsys.readouterr().out

    def test_lift_flag(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("0 1\n0 2\n1 2\n")
        assert main(["from-graph", str(graph_path), "--t", "3", "--lift"]) == 0
        inst = gf.maxcover_from_json(json.loads(capsys.readouterr().out))
        assert gf.maxcover_value(inst).value == 1
