import functools
import itertools
import json
import os

import pytest

from trilie import structure
from trilie.campaigns import build_context
from trilie.cli import main
from trilie.documents import render_document
from trilie.bundled import get_bundled


def strip_durations(obj):
    if isinstance(obj, dict):
        return {k: strip_durations(v) for k, v in obj.items() if k != "duration_s"}
    if isinstance(obj, list):
        return [strip_durations(v) for v in obj]
    return obj


def test_list_bundled(capsys):
    assert main(["list-bundled"]) == 0
    out = capsys.readouterr().out
    assert "laurent-quotient-p3" in out
    assert "dirac-gamma" in out
    assert "expected outcome: any-fail" in out


def test_describe(capsys):
    assert main(["describe", "laurent-quotient-p3"]) == 0
    out = capsys.readouterr().out
    assert "construction:" in out and "campaigns:" in out


def test_verify_positive_document(tmp_path, capsys):
    code = main(["verify", "laurent-quotient-p3", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: all-pass" in out
    report = json.loads((tmp_path / "laurent-quotient-p3.report.json").read_text())
    assert report["format"] == "trilie-report"
    assert report["verdict"] == "all-pass"
    assert report["summary"]["fail"] == 0
    names = [c["name"] for c in report["campaigns"]]
    assert names == ["skew", "fi", "derived", "simplicity"]


def test_verify_negative_control_exits_one(tmp_path, capsys):
    code = main(["verify", "control-mutated-quotient", "--out-dir", str(tmp_path)])
    assert code == 1
    report = json.loads(
        (tmp_path / "control-mutated-quotient.report.json").read_text())
    assert report["verdict"] == "any-fail"
    fi = report["campaigns"][0]
    assert fi["verdict"] == "fail" and fi["witness"] is not None


def test_a_derivation_off_the_window_fails_the_grading(tmp_path, capsys):
    # d/dt in place of t d/dt sends t + t^-1 to 1 - t^-2, which lies in
    # neither piece of the flip; this exited 70 while the pieces were read in
    # coordinates of a window that 1 - t^-4 leaves
    doc = get_bundled("laurent-flip-unit")
    doc["maps"]["euler"]["power"] = 0
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "laurent-flip-unit.report.json").read_text())
    grading = next(c for c in report["campaigns"] if c["check"] == "grading")
    assert grading["verdict"] == "fail" and grading["counts"] == {"checked": 14}
    assert grading["witness"] == {"from": "plus", "element": "t^-1 + t^1",
                                  "image": "-1*t^-2 + 1"}


def test_verify_budget_refusal_exits_two(tmp_path, capsys):
    code = main(["verify", "laurent-quotient-p3", "--budget", "10",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "laurent-quotient-p3.report.json").read_text())
    simplicity = [c for c in report["campaigns"] if c["check"] == "simplicity"][0]
    assert simplicity["verdict"] == "refused"
    assert simplicity["counts"]["required"] == 364
    assert report["verdict"] == "refused"


def test_a_law_with_no_case_in_the_window_is_refused(tmp_path, capsys):
    # on the basis {t, t^2} there is no 5-tuple of distinct indices, no triple
    # of distinct indices and so nothing to check; these three campaigns
    # passed with checked 0, and alternating checks 2 x 2 repeated pairs and
    # 40 x 6 orderings
    doc = get_bundled("laurent-flip-unit")
    doc["basis"] = {"kind": "explicit", "indices": ["t^1", "t^2"], "tabulate": False}
    doc["campaigns"] = [
        {"name": "fi", "check": "fundamental-identity"},
        {"name": "antisymmetry", "check": "involution-antisymmetry", "omega": "omega1"},
        {"name": "hom", "check": "homomorphism", "map": {"rule": "identity"},
         "target": {"form": "laurent-flip", "lambdas": ["1"]}},
        {"name": "alternating", "check": "alternating"},
    ]
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "laurent-flip-unit.report.json").read_text())
    got = {c["name"]: (c["verdict"], c["counts"]["checked"]) for c in report["campaigns"]}
    assert got == {"fi": ("refused", 0), "antisymmetry": ("refused", 0), "hom": ("refused", 0),
                   "alternating": ("pass", 244)}
    for c in report["campaigns"][:3]:
        assert "no case of the law lies in the window" in c["notes"]["reason"]
    assert report["campaigns"][0]["counts"]["covered"] == 32
    assert report["verdict"] == "refused"


def test_verify_reports_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "cyclic-group-f3", "--out-dir", str(a)]) == 0
    assert main(["verify", "cyclic-group-f3", "--out-dir", str(b)]) == 0
    ra = json.loads((a / "cyclic-group-f3.report.json").read_text())
    rb = json.loads((b / "cyclic-group-f3.report.json").read_text())
    assert strip_durations(ra) == strip_durations(rb)


def test_verify_document_from_file(tmp_path, capsys):
    doc = get_bundled("gl2-trace-lift")
    doc["name"] = "my-local-doc"
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    code = main(["verify", str(path), "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "my-local-doc.report.json").exists()


def test_verify_parallel_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["verify", "cyclic-group-f3", "--parallel", "--out-dir", str(tmp_path)]) == 64
    assert "--parallel" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture
def child_chunks(monkeypatch):
    """The x-tuples handed to each FI child process started; the children
    run in this process."""
    import multiprocessing

    chunks = []

    class InProcess:
        def __init__(self, target, args, daemon):
            self.run = functools.partial(target, *args)
            chunks.append(args[-1])

        def start(self):
            self.run()

    monkeypatch.setattr(multiprocessing, "Process", InProcess)
    return chunks


def fi_report(name):
    rep = structure.verify_fundamental_identity(build_context(get_bundled(name)).algebra)
    return rep.checked, rep.failures


@pytest.mark.parametrize("name, witnesses", [("control-mutated-quotient", 5),
                                             ("gl3-trace-lift", 0)])
def test_split_fi_matches_the_serial_scan(name, witnesses, monkeypatch):
    import multiprocessing

    monkeypatch.setattr(structure, "available_cores", lambda: 1)
    serial = fi_report(name)
    # three chunks of x-tuples: one here, one in each of two child processes,
    # for the pass over the basis of ad maps and, on the failing control
    # only, for the rescan of every tail
    pipes, real = [], multiprocessing.Pipe

    def recording(duplex):
        pipes.append(duplex)
        return real(duplex)

    monkeypatch.setattr(multiprocessing, "Pipe", recording)
    monkeypatch.setattr(structure, "available_cores", lambda: 3)
    monkeypatch.setattr(structure, "FI_CASES_PER_PROCESS", 100)
    assert fi_report(name) == serial
    assert pipes == [False] * (4 if witnesses else 2) and len(serial[1]) == witnesses


def _dying_child(send, L, ys, xs):
    os._exit(1)


def test_a_dead_fi_child_is_an_error_not_a_hang(monkeypatch):
    import signal

    def hung(signum, frame):
        raise TimeoutError("the scan waits for a dead child")

    monkeypatch.setattr(structure, "_fi_scan_child", _dying_child)
    monkeypatch.setattr(structure, "available_cores", lambda: 2)
    monkeypatch.setattr(structure, "FI_CASES_PER_PROCESS", 100)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(EOFError):
            fi_report("gl3-trace-lift")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cores, per_process, processes", [
    (8, 300, 5), (2, 300, 2), (3, 1343, 2), (8, 1344, 1), (1, 1, 1)])
def test_fi_processes_are_sized_by_cases_and_cores(cores, per_process, processes,
                                                   monkeypatch, child_chunks):
    # gl3-trace-lift: d = 9, C(9, 3) * C(9, 2) = 3,024 cases, decided by
    # scanning C(9, 3) * 16 = 1,344 on the tails of a basis of its ad maps
    L = build_context(get_bundled("gl3-trace-lift")).algebra
    assert len(structure._ad_basis(L)) == 16
    monkeypatch.setattr(structure, "available_cores", lambda: cores)
    monkeypatch.setattr(structure, "FI_CASES_PER_PROCESS", per_process)
    rep = structure.verify_fundamental_identity(L)
    assert rep.checked == 3024 and rep.passed
    # this process scans the first of `processes` chunks
    assert len(child_chunks) == processes - 1
    xtuples = list(itertools.combinations(range(9), 3))
    assert sum(child_chunks, []) == xtuples[-(-len(xtuples) // processes):]


@pytest.mark.parametrize("name", ["laurent-quotient-p5", "gl3-trace-lift"])
def test_bundled_tables_scan_in_process_on_any_core_count(name, monkeypatch, child_chunks):
    monkeypatch.setattr(structure, "available_cores", lambda: 64)
    fi_report(name)
    assert child_chunks == []


def test_sampled_fi_scans_in_process(monkeypatch, child_chunks):
    monkeypatch.setattr(structure, "available_cores", lambda: 8)
    monkeypatch.setattr(structure, "FI_CASES_PER_PROCESS", 1)
    L = build_context(get_bundled("gl3-trace-lift")).algebra
    assert structure.verify_fundamental_identity(L, mode="sampled", samples=50).checked == 50
    assert child_chunks == []


def test_verify_builds_the_document_once(tmp_path, monkeypatch, capsys):
    import trilie.campaigns as campaigns

    calls = []
    build = campaigns.build_context

    def counting(doc):
        calls.append(doc["name"])
        return build(doc)

    monkeypatch.setattr(campaigns, "build_context", counting)
    assert main(["verify", "laurent-quotient-p3", "--out-dir", str(tmp_path)]) == 0
    assert calls == ["laurent-quotient-p3"]
    assert main(["export", "laurent-quotient-p3", "--out", str(tmp_path / "q.json")]) == 0
    assert calls == ["laurent-quotient-p3"] * 2


def test_unexpected_exception_exits_internal(tmp_path, monkeypatch, capsys):
    import trilie.campaigns as campaigns

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(campaigns, "run_campaign", broken)
    assert main(["verify", "laurent-quotient-p3", "--out-dir", str(tmp_path)]) == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_export_structure_constants(tmp_path, capsys):
    out = tmp_path / "q3.json"
    assert main(["export", "laurent-quotient-p3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "nlie-structure-constants"
    assert doc["dim"] == 6
    keys = [tuple(e["args"]) for e in doc["constants"]]
    assert keys == sorted(keys)
    # byte-identical on re-export
    out2 = tmp_path / "q3b.json"
    assert main(["export", "laurent-quotient-p3", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_exported_quotient_replays_its_constants(tmp_path):
    # the exported table read back: bracket_indices on every ordered triple
    # equals the stored constants signed by the sorting permutation
    out = tmp_path / "q3.json"
    assert main(["export", "laurent-quotient-p3", "--out", str(out)]) == 0
    L = structure.algebra_from_dict(json.loads(out.read_text()))
    f = L.field

    def signed(t):
        if len(set(t)) < len(t):
            return {}
        order = sorted(range(len(t)), key=t.__getitem__)
        vec = L.constants.get(tuple(sorted(t)), {})
        if structure._perm_sign(order) == 1:
            return vec
        return {l: f.neg(c) for l, c in vec.items()}

    triples = list(itertools.product(range(L.dim), repeat=3))
    assert len(triples) == 216 and L.constants
    for t in triples:
        assert L.bracket_indices(t) == signed(t), t


def test_export_requires_tabulated_basis(tmp_path, capsys):
    assert main(["export", "laurent-flip-lambda2",
                 "--out", str(tmp_path / "x.json")]) == 64
    assert "configuration error" in capsys.readouterr().err


def test_unknown_document_exits_config_error(capsys):
    assert main(["verify", "no-such-doc"]) == 64
    assert "neither a bundled document nor a file" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify"], ["describe"], ["export", "--out", "x.json"]])
def test_directory_as_document_exits_config_error(tmp_path, capsys, command):
    assert main([command[0], str(tmp_path), *command[1:]]) == 64
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_document_exits_config_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff{}")
    assert main(["verify", str(path)]) == 64
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_uncreatable_out_dir_exits_config_error_before_any_campaign(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "laurent-quotient-p3", "--out-dir", str(blocker / "sub")]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "--out-dir: cannot create" in err


def test_uncreatable_export_exits_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["export", "laurent-quotient-p3", "--out", str(blocker / "x.json")]) == 64
    assert "--out: cannot create" in capsys.readouterr().err


def test_cyclic_group_kernel_campaign_details(tmp_path):
    assert main(["verify", "cyclic-group-f3", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "cyclic-group-f3.report.json").read_text())
    kernel = [c for c in report["campaigns"] if c["check"] == "kernel-ideal"][0]
    assert kernel["notes"]["witness_is_kernel"] is True
    assert kernel["notes"]["is_maximal"] is True
    assert kernel["counts"]["kernel_dim"] == 2


def kernel_campaign(tmp_path, doc, *options):
    """Exit code and kernel-ideal result of verifying `doc` from a file."""
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    code = main(["verify", str(path), *options, "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / f"{doc['name']}.report.json").read_text())
    return code, next(c for c in report["campaigns"] if c["check"] == "kernel-ideal")


def test_kernel_ideal_past_the_line_budget_is_certified_on_the_carrier(tmp_path):
    # F_3[Z_3^3] tabulates (d = 27) but has (3^27 - 1) / 2 lines, far past the
    # budget: its kernel is certified by the hom's values, not line by line
    doc = get_bundled("cyclic-group-f3")
    doc.update(name="z3-cubed", maps={},
               carrier={"shape": "group", "torsion": [3, 3, 3]},
               bracket={"form": "group-wedge", "hom": {"torsion": ["1", "0", "0"]}},
               campaigns=[{"name": "kernel-ideal", "check": "kernel-ideal"}])
    code, kernel = kernel_campaign(tmp_path, doc)
    assert code == 0 and kernel["verdict"] == "pass"
    assert kernel["notes"]["method"] == "kernel-functional"
    assert kernel["counts"] == {"checked": 527}


def test_kernel_ideal_follows_the_budget_option(tmp_path):
    # cyclic-group-f5 has 781 lines: within the default budget, not within 780
    doc = get_bundled("cyclic-group-f5")
    code, kernel = kernel_campaign(tmp_path, doc)
    assert code == 0 and kernel["notes"]["method"] == "exhaustive-1dim"
    code, kernel = kernel_campaign(tmp_path, doc, "--budget", "780")
    assert code == 2 and kernel["verdict"] == "pass"     # `simplicity` is refused
    assert kernel["notes"]["method"] == "kernel-functional"


@pytest.mark.parametrize("argv", [
    ["verify", "laurent-quotient-p3", "--bogus"],
    ["verify", "laurent-quotient-p3", "--budget", "abc"],
    ["verify", "laurent-quotient-p3", "--budget", "0"],
    ["verify", "laurent-quotient-p3", "--budget", "-3"],
    ["verify"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_64_and_run_nothing(argv, tmp_path, capsys):
    # 2 would mean "a campaign was refused"; a bad command line is a usage error
    assert main([*argv, "--out-dir", str(tmp_path)] if argv[:1] == ["verify"]
                else argv) == 64
    captured = capsys.readouterr()
    assert "usage: trilie" in captured.err and "REFUSED" not in captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_still_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("p", [
    91, -7, 2 ** 89 - 1,
    # a safe prime 2q + 1 with q past the bound as well
    pytest.param(6634088129359774771927739, id="undecided_safe_prime"),
])
def test_field_errors_exit_64(p, tmp_path, capsys):
    # a composite, a negative and primes past the exact Miller-Rabin bound
    # are configuration errors at $.field, never internal errors
    doc = get_bundled("laurent-quotient-p3")
    doc["field"]["p"] = p
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    assert main(["verify", str(path), "--out-dir", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "$.field" in err and "Traceback" not in err
