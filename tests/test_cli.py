import io
import contextlib

from orientkit.cli import dispatch
from orientkit.graph import Graph, read_graph, write_graph
from orientkit.instances import split_tight_example
from orientkit.orientation import read_orientation, is_proper


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    report = {}
    for line in buf.getvalue().splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return code, report, buf.getvalue()


def test_solve_decision_and_opt(tmp_path):
    path = tmp_path / "g.graph"
    write_graph(split_tight_example(2), path)
    code, rep, _ = run(["solve", str(path), "--opt",
                        "--witness-out", str(tmp_path / "w.orient")])
    assert code == 0 and rep["value"] == "2"
    code, rep, _ = run(["solve", str(path), "--k", "1"])
    assert code == 0 and rep["answer"] == "no"
    code, rep, _ = run(["solve", str(path), "--k", "2"])
    assert code == 0 and rep["answer"] == "yes"


def test_verify_roundtrip(tmp_path):
    gpath = tmp_path / "g.graph"
    opath = tmp_path / "d.orient"
    write_graph(Graph.complete(3), gpath)
    code, rep, _ = run(["solve", str(gpath), "--k", "2",
                        "--witness-out", str(opath)])
    assert code == 0
    code, rep, _ = run(["verify", str(gpath), str(opath)])
    assert code == 0
    assert rep["proper"] == "true" and rep["max_indegree"] == "2"
    code, rep, _ = run(["verify", str(gpath), str(opath),
                        "--compensate", "0", "5", "0"])
    assert code == 0 and "compensated" in rep


def test_verify_rejects_an_arc_that_is_not_an_edge(tmp_path):
    gpath = tmp_path / "g.graph"
    opath = tmp_path / "d.orient"
    write_graph(Graph.path_graph(3), gpath)
    for arcs in ("0 1\n0 2\n", "0 1\n1 1\n"):
        opath.write_text("3 2\n" + arcs)
        code, rep, _ = run(["verify", str(gpath), str(opath)])
        assert code == 2 and "is not an edge" in rep["error"]


def test_orient_auto_and_classes(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(split_tight_example(3), gpath)
    out = tmp_path / "d.orient"
    code, rep, _ = run(["orient", str(gpath), "--class", "split",
                        "--out", str(out)])
    assert code == 0
    assert rep["class"] == "split" and rep["bound"] == "4"
    assert rep["proper"] == "true" and int(rep["max_indegree"]) <= 4
    g = read_graph(gpath)
    d = read_orientation(out, g)
    assert is_proper(d)
    code, rep, _ = run(["orient", str(gpath), "--class", "auto"])
    assert code == 0 and rep["class"] == "split"
    # wrong class is a recognition failure
    code, rep, _ = run(["orient", str(gpath), "--class", "outerplanar-strip"])
    assert code == 2


def test_recognize_report(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(Graph.complete(4), gpath)
    code, rep, _ = run(["recognize", str(gpath)])
    assert code == 0
    assert rep["chordal"] == "true" and rep["omega"] == "4"
    assert rep["quasi_threshold"] == "true"
    assert rep["cograph"] == "true" and rep["claw_free"] == "true"


def test_generate_gadgets_and_roles(tmp_path):
    out = tmp_path / "s.graph"
    code, rep, _ = run(["generate", "--gadget", "S", "--k", "3",
                        "--out", str(out)])
    assert code == 0 and rep["n"] == "10" and rep["m"] == "20"
    roles = (tmp_path / "s.graph.roles").read_text()
    assert "kind=S" in roles and "spine=0,1,2,3" in roles
    code, rep, _ = run(["generate", "--gadget", "F", "--i", "2", "--k", "3",
                        "--out", str(tmp_path / "f.graph")])
    assert code == 0
    code, rep, _ = run(["generate", "--gadget", "Z", "--k", "4",
                        "--out", str(tmp_path / "z.graph")])
    assert code == 0 and rep["n"] == "7"


def test_generate_random_and_tight(tmp_path):
    code, rep, _ = run(["generate", "--random", "split", "--size", "12",
                        "--seed", "5", "--out", str(tmp_path / "r.graph")])
    assert code == 0 and rep["kind"] == "random-split"
    code, rep, _ = run(["generate", "--tight", "block", "--param", "2",
                        "--out", str(tmp_path / "b.graph")])
    assert code == 0 and rep["n"] == "12"


def test_generate_seed_env_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    monkeypatch.setenv("ORIENTKIT_SEED", "99")
    run(["generate", "--random", "cograph", "--size", "9", "--seed", "1",
         "--out", str(out1)])
    monkeypatch.delenv("ORIENTKIT_SEED")
    run(["generate", "--random", "cograph", "--size", "9", "--seed", "99",
         "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_kernelize(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(split_tight_example(4), gpath)
    code, rep, _ = run(["kernelize", str(gpath), "--k", "2",
                        "--kind", "split", "--out", str(tmp_path / "k.graph")])
    assert code == 0 and rep["kernel_n"] == "4" and rep["changed"] == "true"


def test_reduce(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(Graph.complete(4), gpath)
    code, rep, _ = run(["reduce", str(gpath), "--k", "3",
                        "--out", str(tmp_path / "r.graph")])
    assert code == 0 and rep["k_prime"] == "6"
    roles = (tmp_path / "r.graph.roles").read_text()
    assert "clique=0,1,2,3" in roles
    # the generate spelling produces the same graph
    code, rep, _ = run(["generate", "--reduce-vc", str(gpath), "--k", "3",
                        "--out", str(tmp_path / "r2.graph")])
    assert code == 0 and rep["k_prime"] == "6"
    assert (tmp_path / "r.graph").read_text() == \
           (tmp_path / "r2.graph").read_text()


def test_budget_exit_code(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(Graph.complete(6), gpath)
    code, rep, _ = run(["solve", str(gpath), "--k", "5", "--budget", "2"])
    assert code == 3 and rep["budget_exceeded"] == "true"


def test_negative_budget_is_a_precondition_failure(tmp_path):
    gpath = tmp_path / "c5.graph"
    write_graph(Graph.cycle_graph(5), gpath)
    for how in (["--opt"], ["--k", "1"], ["--k", "2"]):
        code, rep, _ = run(["solve", str(gpath), *how, "--budget", "-1"])
        assert code == 2 and "budget_exceeded" not in rep
        assert rep["error"] == "node_budget must be non-negative"


def test_reports_are_reproducible(tmp_path):
    gpath = tmp_path / "g.graph"
    write_graph(split_tight_example(2), gpath)
    _, _, text1 = run(["solve", str(gpath), "--opt"])
    _, _, text2 = run(["solve", str(gpath), "--opt"])
    strip = lambda t: [l for l in t.splitlines() if not l.startswith("elapsed=")]
    assert strip(text1) == strip(text2)


def test_bad_input_is_precondition_failure(tmp_path):
    gpath = tmp_path / "bad.graph"
    gpath.write_text("2 1\n0 5\n")
    code, rep, _ = run(["solve", str(gpath), "--k", "1"])
    assert code == 2 and "error" in rep
