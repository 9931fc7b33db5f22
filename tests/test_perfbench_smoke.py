"""The benchmark under `perfbench/` must still run against the package.

Sets up the 20-doc `local_small` workload the way `perfbench/run.py`
does and asks it four questions, so an API change that would break the
benchmark fails here first. The test only reads `perfbench/`.
"""

import json
from pathlib import Path

import hmrag

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def test_perfbench_local_small_answers_without_errors(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import corpus

    world = corpus.build_world(20, SEED)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in corpus.corpus_records(world)),
                           encoding="utf-8")
    runner = bench.Bench(world, bench.WORKLOADS["local_small"], corpus_path)
    store = tmp_path / "store"
    store.mkdir()
    pipeline, info = runner.setup(store)
    assert info["docs"] == 20

    outcomes = []
    for question in corpus.build_questions(world, 4, SEED):
        record = hmrag.pipeline.parse_eval_record(
            {"id": question.id, "question": question.question,
             "choices": list(question.choices), "answer": question.answer})
        text = hmrag.pipeline.format_eval_question(record)
        outcomes.append(bench.ask(runner, pipeline, question, text))
    assert [o.error for o in outcomes] == [""] * 4
