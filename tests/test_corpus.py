import shlex

import pytest

import corpus

ROWS = corpus.load()


@pytest.mark.parametrize("row", ROWS, ids=[shlex.join(row["argv"]) for row in ROWS])
def test_corpus_row_replays(row):
    # the argv's exit code, stdout digest and stderr, as tests/corpus.json
    # holds them; a row that differs fails under its argv
    assert corpus.run(row["argv"]) == row


def test_corpus_file_is_one_sorted_row_per_argv():
    assert len(ROWS) >= 200
    # one row to an argv, sorted and one to a line, so a diff names each changed row
    assert len({tuple(row["argv"]) for row in ROWS}) == len(ROWS)
    assert corpus.PATH.read_text() == corpus.dump(ROWS)


def test_every_bench_job_is_a_corpus_row(bench_jobs):
    # a benchmark change that adds a job shape must pin its bytes here too
    pinned = {tuple(row["argv"]) for row in ROWS}
    assert [shlex.join(job.argv) for job in bench_jobs if job.argv not in pinned] == []
