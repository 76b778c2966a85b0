"""The class table behind ``orient``: each entry's recognizer accepts its
own kind, its constructor meets the bound it reports, and the ``orient``
reports and orientation files stay byte for byte as pinned."""

import contextlib
import hashlib
import io
import random

import pytest

from orientkit import construct
from orientkit.cli import dispatch
from orientkit.graph import Graph, write_graph
from orientkit.instances import random_class_instance
from orientkit.orientation import is_proper, max_indegree
from oracles import random_tree, threshold_graph

# the order `orient --class auto` tries the classes in
ORDER = ("quasi-threshold", "split", "two-cut-block", "uniform-block",
         "outerplanar-strip", "cograph", "low-degree")
GENERATOR_KIND = {"outerplanar-strip": "strip"}
SIZES = (4, 9, 25)    # vertices, blocks or triangles, as the kind reads it
SEEDS = range(5)


def corpus(name):
    """(id, graph) pairs of the kind the named table entry accepts."""
    if name == "low-degree":
        return [(f"tree-{n}-s{seed}", random_tree(random.Random(seed), n))
                for n in (5, 12, 40) for seed in SEEDS]
    kind = GENERATOR_KIND.get(name, name)
    return [(f"{kind}-{size}-s{seed}", random_class_instance(kind, size, seed))
            for size in SIZES for seed in SEEDS]


def test_table_order():
    assert tuple(cls.name for cls in construct.ORIENT_CLASSES) == ORDER


@pytest.mark.parametrize("name", ORDER)
def test_entries_meet_their_bounds(name):
    (cls,) = [c for c in construct.ORIENT_CLASSES if c.name == name]
    for gid, g in corpus(name):
        cert = cls.recognize(g, None)
        assert cert is not None, gid
        d = cls.orient(g, cert)
        assert is_proper(d), gid
        bound = cls.bound(cert, d)
        assert max_indegree(d) <= bound, gid
        if name == "cograph":
            # read off the orientation, and equal to the cotree's own fold
            assert bound == construct.cograph_upper_bound(cert), gid
        elif name != "quasi-threshold":  # which reports the optimum reached
            # a bound read off the orientation would hold for any result
            assert cls.bound(cert, d.reversed()) == bound, gid


def test_block_recognizers_rule_out_by_counts(monkeypatch):
    # a connected k-uniform block graph has 2m = k(n - 1) with k >= 3; these
    # graphs miss that, so no block-cut tree is built to reject them
    def no_tree(g):
        raise RuntimeError("block-cut tree built")
    monkeypatch.setattr(construct, "block_cut_tree", no_tree)
    blocks = [c for c in construct.ORIENT_CLASSES if c.name.endswith("block")]
    for g in (random_class_instance("cograph", 200, 1),
              random_class_instance("strip", 10, 0), Graph.path_graph(5),
              Graph(1), Graph(0)):
        for cls in blocks:
            assert cls.recognize(g, None) is None, (cls.name, g)


@pytest.mark.parametrize("kind", ["uniform-block", "two-cut-block"])
def test_block_status_is_counted_not_checked_block_by_block(
        kind, monkeypatch, tmp_path):
    # the edges fill the blocks exactly when every block is a clique, and
    # the count that gives k also makes the graph connected; the
    # constructor's own input check reads connectivity off the tree
    gpath = tmp_path / "g.graph"
    write_graph(random_class_instance(kind, 800, 1), gpath)
    calls = dict.fromkeys(("is_clique", "is_connected"), 0)
    for name in calls:
        def counting(self, *args, _name=name, _real=getattr(Graph, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Graph, name, counting)
    for argv in (["orient", str(gpath), "--class", "auto"],
                 ["recognize", str(gpath)]):
        calls.update(is_clique=0, is_connected=0)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert dispatch(argv) == 0
        assert calls == {"is_clique": 0, "is_connected": 0}, argv
    assert "block_graph=true" in buf.getvalue().splitlines()


@pytest.mark.parametrize("cls", ["auto", "quasi-threshold"])
def test_quasi_threshold_orient_builds_no_graph_from_its_cotree(
        cls, monkeypatch, tmp_path):
    def no_rebuild(*args):
        raise RuntimeError("graph rebuilt from its cotree")
    monkeypatch.setattr(construct, "evaluate_cotree", no_rebuild)
    gpath = tmp_path / "g.graph"
    write_graph(random_class_instance("quasi-threshold", 40, 2), gpath)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(["orient", str(gpath), "--class", cls])
    assert code == 0
    assert "class=quasi-threshold" in buf.getvalue().splitlines()


@pytest.mark.parametrize("cls", ["auto", "outerplanar-strip"])
def test_strip_is_recognized_once_per_orient(cls, monkeypatch, tmp_path):
    # the table row orients the strip its recognizer returned; only the
    # public outerplanar_strip_orient recomputes a strip to compare
    calls = []

    def counting(g, _real=construct.outerplanar_strip):
        calls.append(g.n)
        return _real(g)
    monkeypatch.setattr(construct, "outerplanar_strip", counting)
    gpath = tmp_path / "g.graph"
    write_graph(random_class_instance("strip", 200, 1), gpath)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert dispatch(["orient", str(gpath), "--class", cls]) == 0
    assert "class=outerplanar-strip" in buf.getvalue().splitlines()
    assert len(calls) == 1


# -- pinned orient reports ---------------------------------------------------

# a 6-cycle is in none of the classes; with --c 1 the degree condition
# fails too, so --class auto exits 2
NO_CLASS = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
PIN_CASES = ([(gid, g, ()) for name in ORDER for gid, g in corpus(name)]
             + [("threshold-250", threshold_graph(250), ()),
                ("cycle-6", NO_CLASS, ()),
                ("cycle-6-c1", NO_CLASS, ("--c", "1"))])


def orient_digest(gpath, out, cls, extra=()):
    """Short sha256 of one orient run: its report lines other than command=
    and elapsed=, with the --out path masked, and the file it wrote."""
    if out.exists():
        out.unlink()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        dispatch(["orient", str(gpath), "--class", cls, *extra,
                  "--out", str(out)])
    lines = [line.replace(str(out), "OUT")
             for line in buf.getvalue().splitlines()
             if not line.startswith(("command=", "elapsed="))]
    if out.exists():
        lines.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:8]


def orient_digests(g, tmp_path, extra=()):
    gpath = tmp_path / "g.graph"
    write_graph(g, gpath)
    return " ".join(orient_digest(gpath, tmp_path / "d.orient", cls, extra)
                    for cls in ("auto",) + ORDER)


@pytest.mark.parametrize("gid, g, extra", PIN_CASES,
                         ids=[case[0] for case in PIN_CASES])
def test_orient_reports_are_pinned(gid, g, extra, tmp_path):
    assert orient_digests(g, tmp_path, extra) == PINS[gid]


# computed with the per-class orient of the CLI before the table existed
PINS = {
    "quasi-threshold-4-s0": "0df0896b 0df0896b d177b735 ee7a9c96 ee7a9c96 ee7a9c96 e9110c8f 66d6ae51",
    "quasi-threshold-4-s1": "82e15423 82e15423 0b737003 727c3ed1 727c3ed1 727c3ed1 d5116971 685b5a7a",
    "quasi-threshold-4-s2": "71439f18 71439f18 8d2c9942 e01c128c e01c128c e01c128c 32e7fc26 3b768138",
    "quasi-threshold-4-s3": "9a21bd50 9a21bd50 46b281bc a3687cf4 3e2ff6ee 41337719 81604fb7 ebc6f049",
    "quasi-threshold-4-s4": "9a21bd50 9a21bd50 46b281bc a3687cf4 3e2ff6ee 41337719 81604fb7 ebc6f049",
    "quasi-threshold-9-s0": "3db21648 3db21648 54229683 54229683 54229683 54229683 a93deb77 519801a3",
    "quasi-threshold-9-s1": "144c130e 144c130e 9239cba8 c21f4c33 c21f4c33 c21f4c33 af0c820a e2e354d9",
    "quasi-threshold-9-s2": "0ee2b1ca 0ee2b1ca 7ce98614 7ce98614 7ce98614 7ce98614 66779d2e 64857c50",
    "quasi-threshold-9-s3": "65d5ce79 65d5ce79 4ccc57fa a17324cf a17324cf a17324cf 959b893b 2054e9cb",
    "quasi-threshold-9-s4": "6425f095 6425f095 223053cc 71622c1a 71622c1a 71622c1a 60f305b5 dcfcdff4",
    "quasi-threshold-25-s0": "59863e78 59863e78 323cd620 323cd620 323cd620 323cd620 4dd99041 dfe67a93",
    "quasi-threshold-25-s1": "5ab33077 5ab33077 ff41d9d5 ff41d9d5 ff41d9d5 ff41d9d5 c1c1ffd5 c1f3d75d",
    "quasi-threshold-25-s2": "3796acc9 3796acc9 ce935e9b ce935e9b ce935e9b ce935e9b 49f15888 b83f9a86",
    "quasi-threshold-25-s3": "dce586dc dce586dc 1c8757f1 1c8757f1 1c8757f1 1c8757f1 9116e911 b155c5a2",
    "quasi-threshold-25-s4": "88408b1a 88408b1a d117c416 d117c416 d117c416 d117c416 6be9d158 220f3466",
    "split-4-s0": "a4998502 a4998502 2588de2e ed24a70c ed24a70c 2bb210b3 50d4a46f 5a3773fc",
    "split-4-s1": "b1f0f1dd b1f0f1dd 41373163 12154dc6 12154dc6 12154dc6 4086c35e b68b3007",
    "split-4-s2": "20c9a341 20c9a341 f65052a0 1f56f401 1f56f401 1f56f401 6ebca8e9 e0f2f66d",
    "split-4-s3": "c5715339 57efe08f c5715339 57efe08f 57efe08f 57efe08f 57efe08f 99e05aea",
    "split-4-s4": "6be5938b a6ce99ff 6be5938b a6ce99ff a6ce99ff a6ce99ff a6ce99ff 1a6c5c03",
    "split-9-s0": "28673efe 674d1e16 28673efe 674d1e16 674d1e16 674d1e16 674d1e16 e950dd82",
    "split-9-s1": "927ce82a d979b45d 927ce82a d979b45d d979b45d d979b45d d979b45d 1ee12817",
    "split-9-s2": "b4f43ae8 cb1ff443 b4f43ae8 cb1ff443 cb1ff443 cb1ff443 cb1ff443 b3636fcb",
    "split-9-s3": "aa350f33 0d993090 aa350f33 0d993090 0d993090 0d993090 0d993090 26312556",
    "split-9-s4": "0766bc71 ffb1a51b 0766bc71 ffb1a51b ffb1a51b ffb1a51b ffb1a51b edd01bd8",
    "split-25-s0": "f3fa9bf2 caf951cc f3fa9bf2 caf951cc caf951cc caf951cc caf951cc d5d66fe1",
    "split-25-s1": "58231602 f82c33f3 58231602 f82c33f3 f82c33f3 f82c33f3 f82c33f3 057715ee",
    "split-25-s2": "262fdbd3 2269def0 262fdbd3 2269def0 2269def0 2269def0 2269def0 0472ba4c",
    "split-25-s3": "75e993b5 caf782e7 75e993b5 caf782e7 caf782e7 caf782e7 caf782e7 c457ba89",
    "split-25-s4": "bd70d27b 6af1e854 bd70d27b 6af1e854 6af1e854 6af1e854 6af1e854 818e2a4f",
    "two-cut-block-4-s0": "8ecd7937 697f0b24 697f0b24 8ecd7937 eb52fb89 697f0b24 697f0b24 2d0e9e1f",
    "two-cut-block-4-s1": "ba095337 1b6b6f17 1b6b6f17 ba095337 ae647b33 1b6b6f17 1b6b6f17 662b0b8e",
    "two-cut-block-4-s2": "9d348ba1 9d348ba1 591b7117 b1807fcd 2796b964 591b7117 44b6da09 24aa9c2a",
    "two-cut-block-4-s3": "b4f10b4b 5aea794e 5aea794e b4f10b4b 18335c51 5aea794e 5aea794e 213b5cca",
    "two-cut-block-4-s4": "1a4f0655 614f1853 614f1853 1a4f0655 60cde24a 614f1853 614f1853 9f6fcee0",
    "two-cut-block-9-s0": "72ab30c5 75995c8d 75995c8d 72ab30c5 0fba540d 75995c8d 75995c8d 634385b0",
    "two-cut-block-9-s1": "ec64d9b2 0609d0a3 0609d0a3 ec64d9b2 54406bcc 0609d0a3 0609d0a3 0cf47fc3",
    "two-cut-block-9-s2": "bc2d6f45 a970a129 a970a129 bc2d6f45 257894bf a970a129 a970a129 f797a522",
    "two-cut-block-9-s3": "07a493b9 da5d57f7 da5d57f7 07a493b9 da8b76a8 da5d57f7 da5d57f7 bcdd91af",
    "two-cut-block-9-s4": "f5422f02 9b30beb8 9b30beb8 f5422f02 d07aa1fe 9b30beb8 9b30beb8 6832f1d5",
    "two-cut-block-25-s0": "d660c6ee 982610ec 982610ec d660c6ee 0b060345 982610ec 982610ec a3634799",
    "two-cut-block-25-s1": "d9daa8a6 c8dac23b c8dac23b d9daa8a6 ae4c0562 c8dac23b c8dac23b 65019ae2",
    "two-cut-block-25-s2": "7350b902 ea4039e9 ea4039e9 7350b902 b9691a4f ea4039e9 ea4039e9 786e0fe4",
    "two-cut-block-25-s3": "bbcc6c8f f14a9846 f14a9846 bbcc6c8f 9e671357 f14a9846 f14a9846 b1008321",
    "two-cut-block-25-s4": "15d6598d 0dcf8204 0dcf8204 15d6598d c56bdf15 0dcf8204 0dcf8204 8fa33d01",
    "uniform-block-4-s0": "8ecd7937 697f0b24 697f0b24 8ecd7937 eb52fb89 697f0b24 697f0b24 2d0e9e1f",
    "uniform-block-4-s1": "c684fa5a 407b9aaf 407b9aaf c684fa5a f87949e3 407b9aaf 407b9aaf f6d7b0b4",
    "uniform-block-4-s2": "9d348ba1 9d348ba1 591b7117 b1807fcd 2796b964 591b7117 44b6da09 24aa9c2a",
    "uniform-block-4-s3": "f1c66f84 ede797fa ede797fa f1c66f84 3c45aa58 ede797fa ede797fa 84e5d76d",
    "uniform-block-4-s4": "1a4f0655 614f1853 614f1853 1a4f0655 60cde24a 614f1853 614f1853 9f6fcee0",
    "uniform-block-9-s0": "7714a586 b88c7c14 b88c7c14 b88c7c14 7714a586 b88c7c14 b88c7c14 b4355a94",
    "uniform-block-9-s1": "9aaf853d aec327a7 aec327a7 9aaf853d e5b740c9 aec327a7 aec327a7 09793f4d",
    "uniform-block-9-s2": "9f1bed40 a5da4f62 a5da4f62 a5da4f62 9f1bed40 a5da4f62 a5da4f62 c559a3a9",
    "uniform-block-9-s3": "6f044af4 e8a42b51 e8a42b51 6f044af4 69c640e8 e8a42b51 e8a42b51 e9d70b9c",
    "uniform-block-9-s4": "68796b68 a66acae6 a66acae6 a66acae6 68796b68 a66acae6 a66acae6 dc9fa48e",
    "uniform-block-25-s0": "b4a2c420 53400212 53400212 53400212 b4a2c420 53400212 53400212 1bd7c786",
    "uniform-block-25-s1": "ca62c212 c8e79984 c8e79984 c8e79984 ca62c212 c8e79984 c8e79984 b7aeecf2",
    "uniform-block-25-s2": "8662f945 e13c0721 e13c0721 e13c0721 8662f945 e13c0721 e13c0721 1748a70f",
    "uniform-block-25-s3": "4894a9f2 b6bf67ab b6bf67ab b6bf67ab 4894a9f2 b6bf67ab b6bf67ab ee349d27",
    "uniform-block-25-s4": "a2ca49c6 b39d3141 b39d3141 b39d3141 a2ca49c6 b39d3141 b39d3141 ce86c3df",
    "strip-4-s0": "c4137753 295d2eb0 295d2eb0 295d2eb0 295d2eb0 c4137753 295d2eb0 cb0cf61f",
    "strip-4-s1": "cd024370 46188697 46188697 46188697 46188697 cd024370 46188697 e5ee8374",
    "strip-4-s2": "18eeacc0 0814b02f 0814b02f 0814b02f 0814b02f 18eeacc0 0814b02f 4b01337b",
    "strip-4-s3": "26736e2e aaffa8b5 aaffa8b5 aaffa8b5 aaffa8b5 26736e2e aaffa8b5 aac224dc",
    "strip-4-s4": "26736e2e aaffa8b5 aaffa8b5 aaffa8b5 aaffa8b5 26736e2e aaffa8b5 aac224dc",
    "strip-9-s0": "e348af37 4fffeb23 4fffeb23 4fffeb23 4fffeb23 e348af37 4fffeb23 845429a5",
    "strip-9-s1": "2912bcdc b8f3adc1 b8f3adc1 b8f3adc1 b8f3adc1 2912bcdc b8f3adc1 d641f7d4",
    "strip-9-s2": "d06c27ae 238af127 238af127 238af127 238af127 d06c27ae 238af127 ab44aa86",
    "strip-9-s3": "07274e75 06a12904 06a12904 06a12904 06a12904 07274e75 06a12904 e6eb433b",
    "strip-9-s4": "813f0f93 a73cafed a73cafed a73cafed a73cafed 813f0f93 a73cafed 6c9215ad",
    "strip-25-s0": "fa881cbc 24f9b690 24f9b690 24f9b690 24f9b690 fa881cbc 24f9b690 a78219b0",
    "strip-25-s1": "3840c13c 38dcd725 38dcd725 38dcd725 38dcd725 3840c13c 38dcd725 55b94e27",
    "strip-25-s2": "81508fc4 e6fcf18d e6fcf18d e6fcf18d e6fcf18d 81508fc4 e6fcf18d 8c959b58",
    "strip-25-s3": "7d7feb41 6a73e93f 6a73e93f 6a73e93f 6a73e93f 7d7feb41 6a73e93f 70a7209a",
    "strip-25-s4": "353bc9be 53332d46 53332d46 53332d46 53332d46 353bc9be 53332d46 d3329d71",
    "cograph-4-s0": "54a1bf6c 54a1bf6c 27a3ed99 27a3ed99 27a3ed99 27a3ed99 bf4360ee b5cc560e",
    "cograph-4-s1": "82e15423 82e15423 0b737003 727c3ed1 727c3ed1 727c3ed1 d5116971 685b5a7a",
    "cograph-4-s2": "71439f18 71439f18 8d2c9942 e01c128c e01c128c e01c128c 32e7fc26 3b768138",
    "cograph-4-s3": "759434de 759434de 97675935 b6b04eed b6b04eed b6b04eed f4ad47c5 cbdadc96",
    "cograph-4-s4": "63d3b3e7 63d3b3e7 b33d2105 8743428d 8743428d 035ddc3f d29118bf 3d5d8f1d",
    "cograph-9-s0": "c58ed55b c58ed55b a484a19e 9206585c 9206585c 9206585c bc63a176 c7321ed3",
    "cograph-9-s1": "11ea6c56 11ea6c56 e7234397 e7234397 e7234397 e7234397 d7b92ef5 bd6117ec",
    "cograph-9-s2": "16fe206e 16fe206e 0c1b143b f19197c3 f19197c3 f19197c3 48dc3fd3 3ce62653",
    "cograph-9-s3": "37caa6af 1a081b52 1a081b52 1a081b52 1a081b52 1a081b52 37caa6af 9b99b664",
    "cograph-9-s4": "c24e9003 2b5be0cd 2b5be0cd 2b5be0cd 2b5be0cd 2b5be0cd c24e9003 e50d9a97",
    "cograph-25-s0": "e1ba0d1a bf91ebd6 bf91ebd6 bf91ebd6 bf91ebd6 bf91ebd6 e1ba0d1a 1b629fb8",
    "cograph-25-s1": "9d27d65a 9d27d65a b8384e68 b8384e68 b8384e68 b8384e68 4a30f85a fd1a0c4d",
    "cograph-25-s2": "85b0153b ea172661 ea172661 ea172661 ea172661 ea172661 85b0153b 75489997",
    "cograph-25-s3": "fa880aeb 5d8bc34b 5d8bc34b 5d8bc34b 5d8bc34b 5d8bc34b fa880aeb 1121f174",
    "cograph-25-s4": "ec5373f0 fb865034 fb865034 fb865034 fb865034 fb865034 ec5373f0 7d7b777f",
    "tree-5-s0": "40382e00 298719bf 40382e00 298719bf 298719bf 298719bf 298719bf 1ae3d6d4",
    "tree-5-s1": "ec3e405f 005885ca ec3e405f 005885ca 005885ca 005885ca 005885ca a958c89e",
    "tree-5-s2": "ec3e405f 005885ca ec3e405f 005885ca 005885ca 005885ca 005885ca a958c89e",
    "tree-5-s3": "beae5d55 9416025b beae5d55 9416025b 9416025b 9416025b 9416025b 284a2fff",
    "tree-5-s4": "477a2eef 380d4823 477a2eef 380d4823 380d4823 380d4823 380d4823 67e79133",
    "tree-12-s0": "9a3b141e ad30113a ad30113a ad30113a ad30113a ad30113a ad30113a 9a3b141e",
    "tree-12-s1": "85c6d0ef a10e2243 a10e2243 a10e2243 a10e2243 a10e2243 a10e2243 85c6d0ef",
    "tree-12-s2": "6aeff9fc 0deaabc7 0deaabc7 0deaabc7 0deaabc7 0deaabc7 0deaabc7 6aeff9fc",
    "tree-12-s3": "42eb52d6 fd515fe1 fd515fe1 fd515fe1 fd515fe1 fd515fe1 fd515fe1 42eb52d6",
    "tree-12-s4": "548a6c62 21ea4474 21ea4474 21ea4474 21ea4474 21ea4474 21ea4474 548a6c62",
    "tree-40-s0": "d30f06ea 140ba6cc 140ba6cc 140ba6cc 140ba6cc 140ba6cc 140ba6cc d30f06ea",
    "tree-40-s1": "74f51727 20d56afc 20d56afc 20d56afc 20d56afc 20d56afc 20d56afc 74f51727",
    "tree-40-s2": "2d391227 6c939abb 6c939abb 6c939abb 6c939abb 6c939abb 6c939abb 2d391227",
    "tree-40-s3": "6aa01c29 4e898ea6 4e898ea6 4e898ea6 4e898ea6 4e898ea6 4e898ea6 6aa01c29",
    "tree-40-s4": "ef3f4801 d28e5512 d28e5512 d28e5512 d28e5512 d28e5512 d28e5512 ef3f4801",
    "threshold-250": "c4d0c6ac c4d0c6ac 8b0a2780 db92e70a db92e70a db92e70a b6ae2e41 6e7f978d",
    "cycle-6": "d62dbe4f c69a623a c69a623a c69a623a c69a623a c69a623a c69a623a d62dbe4f",
    "cycle-6-c1": "ac5b9032 c69a623a c69a623a c69a623a c69a623a c69a623a c69a623a ac5b9032",
}
