"""Self-tests of the benchmark: python3 -m pytest perfbench

test_headline_certifies_every_line verifies the p = 5 quotient and takes
about 90 s on a 2-core machine; the rest take a few seconds.
"""

import json

import pytest

import run
import summarize
import tracing
import workloads

trilie = workloads.import_trilie()
from trilie import cli  # noqa: E402
from trilie import structure  # noqa: E402
from trilie.bundled import get_bundled  # noqa: E402
from trilie.documents import render_document  # noqa: E402

SEEDS = (0, 1, 2, 17)


def reference():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_are_deterministic_per_seed(workload):
    for seed in SEEDS:
        first = [render_document(d) for d in workloads.workload_documents(workload, seed)]
        again = [render_document(d) for d in workloads.workload_documents(workload, seed)]
        assert first == again


@pytest.mark.parametrize("workload", ("certify-a4", "quotient-p11"))
def test_seeds_give_different_documents(workload):
    rendered = {render_document(workloads.workload_documents(workload, s)[0]) for s in SEEDS}
    assert len(rendered) == len(SEEDS)


def test_every_workload_document_has_a_reference():
    ref = reference()
    for workload in workloads.WORKLOADS:
        for doc in workloads.workload_documents(workload, 5):
            assert doc["name"] in ref


@pytest.mark.parametrize("n", (4, 10, 22))
def test_seeded_permutation_is_a_permutation(n):
    assert workloads.seeded_permutation(n, 0) == list(range(n))
    for seed in SEEDS[1:]:
        assert sorted(workloads.seeded_permutation(n, seed)) == list(range(n))


def test_quotient_basis_is_a_permutation_of_the_carrier_basis():
    from trilie.campaigns import build_context

    carrier_basis = build_context(workloads.quotient_document(11, 0, False)).basis
    for seed in SEEDS[1:]:
        doc = workloads.quotient_document(11, seed, False)
        basis = build_context(doc).basis
        assert sorted(basis) == sorted(carrier_basis) and len(basis) == len(carrier_basis)
        assert basis != carrier_basis


def test_a4_table_is_the_epsilon_table_in_the_seeded_basis():
    from trilie.campaigns import build_context

    p = 89
    for seed in SEEDS:
        L = build_context(workloads.a4_document(p, seed)).algebra
        perm = workloads.seeded_permutation(4, seed)
        c = workloads.a4_scales(p, seed)
        for i, j, k, l in ((0, 1, 2, 3), (1, 0, 3, 2), (3, 1, 2, 0)):
            eps = workloads._perm_sign((i, j, k, l))
            want = eps * c[i] * c[j] * c[k] * pow(c[l], -1, p) % p
            assert L.bracket_indices((perm[i], perm[j], perm[k])) == {perm[l]: want}


def test_headline_seed_zero_is_the_bundled_document():
    doc = workloads.quotient_document(5, 0, simplicity=True)
    assert render_document(doc) == render_document(get_bundled(workloads.HEADLINE))


def test_headline_certifies_every_line(tmp_path):
    path = tmp_path / "headline.json"
    path.write_text(render_document(workloads.quotient_document(5, 0, simplicity=True)))
    assert cli.main(["verify", str(path), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{workloads.HEADLINE}.report.json").read_text())
    (simplicity,) = [c for c in report["campaigns"] if c["check"] == "simplicity"]
    assert simplicity["counts"]["lines_checked"] == 2_441_406


def _verify_p3(tmp_path, ref, cli_module=cli):
    [path] = [p for p in workloads.write_documents("corpus", 0, str(tmp_path / "docs"))
              if p.endswith("laurent-quotient-p3.json")]
    verify = run.Verifier(cli_module, 0, str(tmp_path / "reports"), ref)
    verify(path, "laurent-quotient-p3")
    return verify


def test_reference_passes_and_tampered_count_fails(tmp_path):
    ref = reference()
    ok = _verify_p3(tmp_path, ref)
    assert ok.attempted == 4 and ok.failed == 0
    ref["laurent-quotient-p3"]["campaigns"]["simplicity"]["counts"]["lines_checked"] += 1
    bad = _verify_p3(tmp_path, ref)
    assert bad.failed == 1 and bad.failed / bad.attempted > 0


def test_exception_is_counted_not_raised(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    verify = _verify_p3(tmp_path, reference(), Crashing)
    assert verify.failed == verify.attempted + 1
    assert "boom" in verify.problems[0]


def test_closed_loop_completes_one_pass_and_stops():
    calls = []

    def verify(path, name):
        calls.append(name)
        return 1.0

    times = run.closed_loop([("a", "a"), ("b", "b")], 0.0, verify)
    assert calls == ["a", "b"] and times == {"a": [1.0], "b": [1.0]}


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "name": "cli.main", "tag": None, "start": 0.0, "end": 10.0,
         "parent": None, "doc": "d", "value": None},
        {"id": 1, "name": "structure.certify_simplicity", "tag": None, "start": 2.0,
         "end": 8.0, "parent": 0, "doc": "d", "value": 60},
        {"id": 2, "name": "structure.derived_algebra", "tag": None, "start": 2.0,
         "end": 3.0, "parent": 1, "doc": "d", "value": None},
    ]
    m = summarize.summarize(spans, {"brackets.evals": 5},
                            {"untraced_verify_s": 9.0, "traced_verify_s": 10.0})
    assert set(m) == set(summarize.metric_names())
    assert m["cli.self_s"] == 4.0 and m["structure.self_s"] == 6.0
    assert m["structure.certify_s"] == 6.0 and m["structure.lines"] == 60
    assert m["structure.lines_per_s"] == 10.0 and m["structure.derived_s"] == 1.0
    assert m["trace.overhead_s"] == 1.0 and m["brackets.evals"] == 5


def test_tracer_records_spans_and_restores_originals(tmp_path):
    original = structure.certify_simplicity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert structure.certify_simplicity is not original
        _verify_p3(tmp_path, reference())
    finally:
        tracer.uninstall()
    assert structure.certify_simplicity is original
    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "documents.parse_document", "campaigns.build_context",
            "structure.certify_simplicity"} <= names
    assert tracer.counters["structure.bracket_indices_calls"][0] > 0
    lines = [s[7] for s in tracer.spans if s[1] == "structure.certify_simplicity"]
    assert lines == [364]
