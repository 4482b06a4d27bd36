import json
import os

import pytest

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


def test_verify_budget_refusal_exits_two(tmp_path, capsys):
    code = main(["verify", "laurent-quotient-p3", "--budget", "10",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "laurent-quotient-p3.report.json").read_text())
    simplicity = [c for c in report["campaigns"] if c["check"] == "simplicity"][0]
    assert simplicity["verdict"] == "refused"
    assert simplicity["counts"]["required"] == 364
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


def test_verify_parallel_flag(tmp_path, capsys):
    # a passing document and a mutated one whose fundamental identity fails
    for name, want in (("gl2-trace-lift", 0), ("control-mutated-quotient", 1)):
        reports = []
        for flags in ([], ["--parallel"]):
            out = tmp_path / name / ("parallel" if flags else "serial")
            assert main(["verify", name, *flags, "--out-dir", str(out)]) == want
            reports.append(json.loads((out / f"{name}.report.json").read_text()))
        serial, parallel = (strip_durations(r) for r in reports)
        assert parallel == serial
        fi = [c for c in serial["campaigns"] if c["check"] == "fundamental-identity"]
        assert fi and (fi[0]["witness"] is not None) == (want == 1)


@pytest.mark.parametrize("parallel, cores, workers", [
    (True, 1, 1), (True, 3, 3), (True, 16, 4), (False, 16, 0)])
def test_parallel_pool_is_sized_by_the_available_cores(tmp_path, monkeypatch, capsys,
                                                       parallel, cores, workers):
    import trilie.cli as cli

    seen = []
    run = cli.run_document

    def recording(ctx, **kwargs):
        seen.append(kwargs["workers"])
        return run(ctx, **kwargs)

    monkeypatch.setattr(cli, "available_cores", lambda: cores)
    monkeypatch.setattr(cli, "run_document", recording)
    flags = ["--parallel"] if parallel else []
    assert main(["verify", "cyclic-group-f3", *flags, "--out-dir", str(tmp_path)]) == 0
    assert seen == [workers]


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


def test_export_requires_tabulated_basis(tmp_path, capsys):
    assert main(["export", "laurent-flip-lambda2",
                 "--out", str(tmp_path / "x.json")]) == 64
    assert "configuration error" in capsys.readouterr().err


def test_unknown_document_exits_config_error(capsys):
    assert main(["verify", "no-such-doc"]) == 64
    assert "neither a bundled document nor a file" in capsys.readouterr().err


def test_cyclic_group_kernel_campaign_details(tmp_path):
    assert main(["verify", "cyclic-group-f3", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "cyclic-group-f3.report.json").read_text())
    kernel = [c for c in report["campaigns"] if c["check"] == "kernel-ideal"][0]
    assert kernel["notes"]["witness_is_kernel"] is True
    assert kernel["notes"]["is_maximal"] is True
    assert kernel["counts"]["kernel_dim"] == 2


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


@pytest.mark.parametrize("p", [91, -7, "undecided_safe_prime"])
def test_field_errors_exit_64(p, request, tmp_path, capsys):
    # a composite, a negative and an undecided modulus are configuration
    # errors at $.field, never internal errors
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    doc = get_bundled("laurent-quotient-p3")
    doc["field"]["p"] = p
    path = tmp_path / "doc.json"
    path.write_text(render_document(doc))
    assert main(["verify", str(path), "--out-dir", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert "$.field" in err and "Traceback" not in err
