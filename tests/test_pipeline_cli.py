import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import gapforge as gf
from gapforge import oracles, pipeline
from gapforge.cli import build_parser, main
from gapforge.errors import (
    DEFAULT_LABELING_CAP,
    GapforgeError,
    MatchingOverflowError,
    NotPrimeError,
    RankRangeError,
)
from gapforge.generators import random_cnf3
from gapforge.pipeline import _certified_code, smallest_workable_prime


_SETCOVER = {"universe": 2, "collections": [[[0]], [[1]]]}
_MEMBER = ["setcover", "member", "--instance", "{doc}", "--code", "{code}", "--i", "0"]
_F_ZERO = ",".join(["0"] * 9)
_RANDOM = ["code", "random", "--seed", "0", "--ell", "3"]
_SC_COMPOSE = ["setcover", "compose", "--instance", "{doc}", "--code", "{code}"]
# composed over RS(3,2), 9 one-set collections give a universe of 3 * 3**19683
_SETCOVER_9 = {"universe": 3, "collections": [[[0]]] * 9}
# an int past the interpreter's 4,300-digit text-to-int limit
_HUGE_INT_CODE = ('{"q": ' + "9" * 5000
                  + ', "r": 1, "ell": 1, "kind": "explicit", "table": [[0]]}')


def triangle():
    return gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)])


def _valid_documents():
    """Every valid input document the CLI tests write, with a command reading it.

    Values are (document, argv, required keys); "{doc}" in argv is the path.
    """
    mc_argv, mc_keys = ["maxcover", "solve", "{doc}"], ("k", "t", "v_parts", "w_parts", "edges")
    code_argv, code_keys = ["code", "measure", "{doc}"], ("q", "r", "ell", "kind", "table")
    sc_argv, sc_keys = ["setcover", "solve", "{doc}", "--cap", "2"], ("universe", "collections")
    cnf = gf.parse_dimacs_cnf("p cnf 2 2\n1 0\n2 0\n")
    maxcovers = {
        "maxcover": gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (1, 3)]),
        "maxcover-from-cnf": gf.sat_to_maxcover(cnf, 2),
        "maxcover-from-graph": gf.clique_to_maxcover(triangle()),
    }
    codes = {
        "code-rs(3,2)": gf.reed_solomon(3, 2),
        "code-rs(5,2)": gf.reed_solomon(5, 2),
        "code-random(4,2,8,3)": gf.random_code(4, 2, 8, 3),
        "code-random(3,1,4,0)": gf.random_code(3, 1, 4, 0),
        "code-explicit": gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]),
    }
    docs = {name: (gf.maxcover_to_json(inst), mc_argv, mc_keys)
            for name, inst in maxcovers.items()}
    docs.update((name, (gf.code_to_json(code), code_argv, code_keys))
                for name, code in codes.items())
    docs["setcover"] = (_SETCOVER, sc_argv, sc_keys)
    docs["setcover-json"] = (gf.setcover_to_json(gf.SetCoverInstance(2, [[{0}], [{1}]])),
                             sc_argv, sc_keys)
    return docs


def _int_leaves(value, path=()):
    """Paths to every int inside nested lists, with their depth below the key."""
    if isinstance(value, list):
        for n, item in enumerate(value):
            yield from _int_leaves(item, path + (n,))
    elif isinstance(value, int):
        yield path


def _mutations(doc, required, rng):
    """(label, file text) pairs, each a malformed version of doc.

    Drops each required key and gives each key a value of another JSON
    type.  Within the required keys, sets ints to -1 (and a code's r to
    r + 5, which no table fits), and at seeded ints
    inside the lists puts a string or -1; in the innermost lists also a
    value past any size, and an int in place of the list.  Truncates the
    file at fixed and seeded points.
    """
    def edited(key, path, value):
        copy = json.loads(json.dumps(doc))
        if not path:
            copy[key] = value
        else:
            target = copy[key]
            for n in path[:-1]:
                target = target[n]
            target[path[-1]] = value
        return json.dumps(copy)

    out = [(f"drop {key}", json.dumps({k: v for k, v in doc.items() if k != key}))
           for key in required]
    for key, value in doc.items():
        other = {str: [1], int: "1", list: "x"}[type(value)]
        out.append((f"{key} as {type(other).__name__}", edited(key, (), other)))
        if key not in required:  # format, provenance and seed take any value of their type
            continue
        if isinstance(value, int):
            out.append((f"{key} = -1", edited(key, (), -1)))
        if key == "r":  # positive, but not the table's
            out.append(("r + 5", edited(key, (), value + 5)))
        leaves = list(_int_leaves(value)) if isinstance(value, list) else []
        if not leaves:
            continue
        deepest = max(len(path) for path in leaves)
        for path in rng.sample(leaves, min(3, len(leaves))):
            out.append((f"{key}{list(path)} as str", edited(key, path, "x")))
            out.append((f"{key}{list(path)} = -1", edited(key, path, -1)))
            if len(path) == deepest > 1:
                out.append((f"{key}{list(path)} past the end", edited(key, path, 10 ** 9)))
                out.append((f"{key}{list(path[:-1])} as int", edited(key, path[:-1], 0)))
    text = json.dumps(doc)
    for cut in sorted({0, 1, len(text) - 1, *rng.sample(range(2, len(text) - 1), 2)}):
        out.append((f"truncated to {cut} chars", text[:cut]))
    return out


class TestCliMutations:
    @pytest.mark.parametrize("name", list(_valid_documents()))
    def test_each_mutation_exits_3_with_one_error_line(self, name, tmp_path, capsys):
        doc, argv, required = _valid_documents()[name]
        path = tmp_path / "doc.json"
        argv = [a.format(doc=path) for a in argv]
        path.write_text(json.dumps(doc))
        assert main(argv) == 0
        capsys.readouterr()
        failures = []
        for label, text in _mutations(doc, required, random.Random(f"cli-mutations/{name}")):
            path.write_text(text)
            try:
                code = main(argv)
            except Exception as exc:  # a traceback breaks the error contract
                failures.append((label, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code != 3 or not err.startswith("error:") or err.count("\n") != 1:
                failures.append((label, code, err))
        assert not failures


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
        for t in range(1, 5):
            for max_w in range(1, 300):
                by_definition = next(q for q in range(t + 1, 400) if q ** t >= max_w
                                     and all(q % p for p in range(2, q)))
                assert smallest_workable_prime(t, max_w) == by_definition

    @pytest.mark.parametrize("t,q,error,match", [
        (3, 4, NotPrimeError, "q=4 is not prime"),
        (3, 2, RankRangeError, "r=3, q=2"),
        (2, 2, MatchingOverflowError, "part 0 has 5 members, the code has 4 codewords"),
    ])
    def test_bad_override_raises_owners_error(self, t, q, error, match):
        # reed_solomon and the composition's matching check an override
        parts = [tuple(range(5 * i, 5 * i + 5)) for i in range(t)]
        edges = [(u, v) for a, b in combinations(parts, 2) for u in a for v in b]
        graph = gf.make_partitioned_graph(parts, edges)
        with pytest.raises(error, match=match):
            gf.wone_pipeline(graph, t, q)

    @pytest.mark.parametrize("t", [0, -1])
    def test_prime_choice_needs_positive_t(self, t):
        with pytest.raises(RankRangeError):
            smallest_workable_prime(t, 2)

    def test_exit_codes(self):
        yes = gf.wone_pipeline(triangle(), 3)
        assert yes.exit_code == 0

    def test_violation(self, tmp_path, monkeypatch, capsys):
        # a NO input whose composed value 2/3 sits exactly at the RS(3,3)
        # bound 1 - delta = 2/3; composed part 2 is uncovered, and one added
        # edge (u, a=(2, rank 9)) covers it, as in test_mutation_flags_violation
        graph = gf.make_partitioned_graph([(0, 1, 2, 3), (4,), (5,)],
                                          [(1, 4), (4, 5), (3, 5)])
        honest = gf.wone_pipeline(graph, 3, 3)
        assert honest.verdict == "NO" and honest.value_after == Fraction(2, 3)

        mutated = []

        def compose_with_one_more_edge(frontend, code):
            composed = gf.compose_gap(frontend, code).materialize()
            wg = composed.num_v + 2 * 27 + 9
            mutated.append(gf.MaxCoverInstance(composed.v_parts, composed.w_parts,
                                               set(composed.edges) | {(1, wg)}))
            return mutated[-1]

        monkeypatch.setattr(pipeline, "compose_gap", compose_with_one_more_edge)
        report = gf.wone_pipeline(graph, 3, 3)
        assert report.verdict == "VIOLATION"
        assert report.value_after == 1
        assert report.gap is None
        assert report.exit_code == 2
        solve = next(s for s in report.stages if s.name == "solve")
        assert solve.sizes["labelings"] == gf.maxcover_value(mutated[-1]).labelings_examined

        graph_path = tmp_path / "g.txt"
        graph_path.write_text("".join(f"part {v} {i}\n" for i, part in enumerate(graph.parts)
                                      for v in part) + "1 4\n4 5\n3 5\n")
        assert main(["pipeline", "wone", "--graph", str(graph_path),
                     "--t", "3", "--q", "3"]) == 2
        assert capsys.readouterr().out.startswith("verdict: VIOLATION\n")


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
    # (3, 3) has the bound 1 - 3/3 = 0, which is vacuous
    @pytest.mark.parametrize("q,r", [(3, 2), (5, 2), (5, 3), (7, 3), (3, 3)])
    def test_cached_pair_matches_fresh_code(self, q, r):
        certified = _certified_code(q, r)
        fresh = gf.reed_solomon(q, r)
        assert certified.code.table() == fresh.table()
        assert certified.delta == oracles.relative_distance_pairs(fresh)[0]
        assert _certified_code(q, r) is certified
        assert certified.bound == 1 - Fraction(r, q)
        assert certified.vacuous_gap == (certified.bound <= 0)

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
        assert smallest_workable_prime.cache_parameters()["maxsize"] == \
            pipeline._PRIME_CACHE_SIZE


class TestCli:
    def test_code_rs_and_measure(self, tmp_path, capsys):
        path = tmp_path / "rs.json"
        assert main(["code", "rs", "--q", "3", "--r", "2", "-o", str(path)]) == 0
        assert main(["code", "measure", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] == "2/3"
        assert doc["collision_number"] == 3
        assert doc["lower_bound"] == 3 and doc["upper_bound"] == 4
        # size 2 is refuted before any visit; then (0,), (0, 1) and
        # (0, 1, 2) .. (0, 1, 5)
        assert doc["collision_subsets_examined"] == 6

    @pytest.mark.parametrize("build,expected", [
        (lambda: gf.reed_solomon(5, 2),
         {"q": 5, "r": 2, "ell": 5, "kind": "reed_solomon", "size": 25, "delta": "4/5",
          "delta_witness": [0, 1], "collision_number": 4, "collision_witness": [0, 1, 5, 12],
          "collision_subsets_examined": 13, "lower_bound": 4, "upper_bound": 6}),
        (lambda: gf.random_code(4, 2, 8, 3),
         {"q": 4, "r": 2, "ell": 8, "kind": "random", "size": 16, "delta": "1/4",
          "delta_witness": [10, 15], "collision_number": 3, "collision_witness": [0, 5, 10],
          "collision_subsets_examined": 61, "lower_bound": 2, "upper_bound": 5}),
    ], ids=["rs52", "random4_2_8_3"])
    def test_code_measure_document(self, tmp_path, capsys, build, expected):
        # the distance method follows the code's kind: certified for
        # Reed-Solomon (witness (0, 1)), the pair scan otherwise
        path = tmp_path / "code.json"
        path.write_text(json.dumps(gf.code_to_json(build())))
        assert main(["code", "measure", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == expected

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

    def test_maxcover_solve_cap_default(self):
        args = build_parser().parse_args(["maxcover", "solve", "inst.json"])
        assert args.cap == DEFAULT_LABELING_CAP

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

    def test_maxcover_compose_document_and_bounded_route(self, tmp_path, capsys):
        inst = gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (1, 3)])
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(gf.maxcover_to_json(inst)))
        code = gf.reed_solomon(3, 2)
        code_path = tmp_path / "rs.json"
        code_path.write_text(json.dumps(gf.code_to_json(code)))
        argv = ["maxcover", "compose", "--instance", str(inst_path), "--code", str(code_path)]

        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "k": 2, "t": 3, "v_parts": [1, 1], "w_parts": [3, 3, 3], "oracle": True,
            "provenance": "compose_gap(instance; reed_solomon q=3 r=2 ell=3)"}
        assert main(argv + ["--d", "1", "--materialize"]) == 0
        composed = gf.maxcover_from_json(json.loads(capsys.readouterr().out))
        bounded = gf.compose_gap_k2_bounded(inst, code, 1)
        assert composed.edges == bounded.edges
        assert composed.provenance == bounded.provenance + "; materialized"

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
        assert doc["subsets_examined"] == 6

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

    def test_pipeline_wone_large_prime(self, tmp_path, capsys):
        # RS(1009, 2) is past the table cap; its distance needs no subset loop
        graph_path = tmp_path / "two_edges.txt"
        graph_path.write_text("0 1\n2 3\npart 0 0\npart 1 1\npart 2 0\npart 3 1\n")
        assert main(["pipeline", "wone", "--graph", str(graph_path),
                     "--t", "2", "--q", "1009", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["code"]["delta_exact"] == "1008/1009"

    @pytest.mark.parametrize("t", [1, 0, -1])
    def test_clique_routes_need_two_parts(self, tmp_path, capsys, monkeypatch, t):
        # plain and one-part partitioned graphs; the check comes before any lift
        plain, one_part = tmp_path / "plain.txt", tmp_path / "one_part.txt"
        plain.write_text("0 1\n1 2\n0 2\n")
        one_part.write_text("part 0 0\npart 1 0\n")

        def no_lift(graph, t):
            raise AssertionError("lifted before t was checked")

        monkeypatch.setattr(gf.frontends, "colorful_lift", no_lift)
        for path in (plain, one_part):
            for argv in (["pipeline", "wone", "--graph", str(path), "--t", str(t)],
                         ["from-graph", str(path), "--t", str(t)]):
                assert main(argv) == 3
                err = capsys.readouterr().err
                assert err == (f"error: t (the clique front-end needs t >= 2 parts) must be an "
                               f"integer >= 2, got {t}\n")
            with pytest.raises(GapforgeError, match="t >= 2"):
                pipeline.wone_pipeline(gf.parse_edge_list(path.read_text()), t)
        with pytest.raises(GapforgeError, match="t >= 2"):
            gf.clique_to_maxcover(gf.make_partitioned_graph([(0, 1)], []))

    def test_part_count_must_match_t(self, tmp_path, capsys):
        # one rule for both clique routes, stated by the front-end
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n0 2\n1 2\npart 0 0\npart 1 1\npart 2 2\n")
        for argv in (["from-graph", str(path), "--t", "4"],
                     ["pipeline", "wone", "--graph", str(path), "--t", "4"]):
            assert main(argv) == 3
            assert capsys.readouterr().err == "error: graph has 3 parts, expected t=4\n"

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
        (_MEMBER + ["--f", ",".join(["5"] * 9), "--set", "0,0"], _SETCOVER),
        (["setcover", "solve", "{doc}", "--cap", "-1"], _SETCOVER),
        (["code", "measure", "{code}", "--col-cap", "-1"], _SETCOVER),
        # each shape rule runs before random_code draws
        (_RANDOM + ["--q", "-2", "--r", "2"], _SETCOVER),
        (_RANDOM + ["--q", "3", "--r", "-1"], _SETCOVER),
        # sizes are checked before anything of that size is allocated
        (["setcover", "solve", "{doc}", "--cap", "2"],
         {"universe": 10 ** 12, "collections": [[[0]], [[0]]]}),
        (["maxcover", "solve", "{doc}"],
         {"k": 1, "t": 1, "v_parts": [1], "w_parts": [10 ** 11], "edges": []}),
        (["maxcover", "solve", "{doc}"],
         {"k": 1, "t": 1, "v_parts": [10 ** 9], "w_parts": [1], "edges": []}),
        # integers past the interpreter's digit limit, in output and in input
        (["threshold", "--code", "{code}", "--t", "10000"], _SETCOVER),
        (["threshold", "--code", "{code}", "--t", "10000", "--export", "{out}"], _SETCOVER),
        (_SC_COMPOSE, _SETCOVER_9),
        (_SC_COMPOSE + ["--export", "{out}"], _SETCOVER_9),
        pytest.param(["code", "measure", "{doc}"], _HUGE_INT_CODE, id="huge-int-input"),
        (["code", "rs", "--q", "1511", "--r", "1511"], _SETCOVER),
        (["maxcover", "solve", "{doc}"],
         {"k": 20000, "t": 1, "v_parts": [2] * 20000, "w_parts": [1], "edges": []}),
        (["maxcover", "compose", "--instance", "{doc}", "--code", "{code}", "--materialize"],
         {"k": 1, "t": 10000, "v_parts": [1], "w_parts": [1] * 10000,
          "edges": [[0, w] for w in range(1, 10001)]}),
    ])
    def test_malformed_input_exit_code(self, tmp_path, capsys, argv, doc):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code_path = tmp_path / "rs.json"
        code_path.write_text(json.dumps(gf.code_to_json(gf.reed_solomon(3, 2))))
        argv = [a.format(doc=doc_path, code=code_path, out=tmp_path / "out.json")
                for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command,text", [
        ("from-cnf", "1 0\n"),  # a clause before the header
        ("from-cnf", "p cnf 1 1\np cnf 1 1\n1 0\n"),  # a second header
        ("from-cnf", "p cnf x 1\n1 0\n"),
        ("from-cnf", "p cnf 1 1\n1 y 0\n"),
        ("from-cnf", "c no header\n"),
        ("from-graph", "0 1\npart 0\n"),
        ("from-graph", "0 1\npart 0 x\npart 1 1\n"),
        ("from-graph", "0 1 2\n"),
    ], ids=["clause-before-header", "second-header", "header-count", "literal", "no-header",
            "part-line", "part-index", "three-fields"])
    def test_parse_error_exit_code(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert main([command, str(path), "--k" if command == "from-cnf" else "--t", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and err.count("\n") == 1

    def test_setcover_compose_past_export_cap(self, tmp_path, capsys):
        inst_path = tmp_path / "sc.json"
        inst_path.write_text(json.dumps(_SETCOVER))
        code_path = tmp_path / "rs52.json"
        code_path.write_text(json.dumps(gf.code_to_json(gf.reed_solomon(5, 2))))
        argv = ["setcover", "compose", "--instance", str(inst_path), "--code", str(code_path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["universe"] == 5 * 2 ** 25
        assert main(argv + ["--export", str(tmp_path / "out.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_runs_without_numpy(self, tmp_path):
        inst_path = tmp_path / "sc.json"
        inst_path.write_text(json.dumps(_SETCOVER))
        code_path = tmp_path / "code.json"
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])
        code_path.write_text(json.dumps(gf.code_to_json(code)))
        out_path = tmp_path / "out.json"
        argv = ["gapforge", "setcover", "compose", "--instance", str(inst_path),
                "--code", str(code_path), "--export", str(out_path)]
        script = "\n".join([
            "import pkgutil, runpy, sys",
            "sys.modules['numpy'] = None",  # any numpy import now fails
            "import gapforge",
            "for mod in pkgutil.iter_modules(gapforge.__path__):",
            "    if not mod.name.startswith('_'):",
            "        __import__('gapforge.' + mod.name)",
            f"sys.argv = {argv!r}",
            "runpy.run_module('gapforge', run_name='__main__', alter_sys=True)",
        ])
        src = Path(gf.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["universe"] == 32
        exported = gf.setcover_from_json(json.loads(out_path.read_text()))
        assert exported.universe_size == 32
        assert gf.min_cover_size(exported, cap=2).min_size == 2

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

    @pytest.mark.parametrize("argv,exit_code", [
        (["--help"], 0), ([], 3),
        # ell < r leaves fewer words than codewords: an error, not an endless redraw
        (["code", "random", "--q", "2", "--r", "2", "--ell", "1", "--seed", "0"], 3),
    ])
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
        ["code", "measure", "rs.json", "--method", "pairs"],
        ["from-graph", "g.txt", "--t", "3", "--lift"],
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
        assert main(["from-graph", str(graph_path), "--t", "3"]) == 0
        inst = gf.maxcover_from_json(json.loads(capsys.readouterr().out))
        assert gf.maxcover_value(inst).value == 1
