import json

import cli_corpus


def test_every_call_prints_what_the_golden_file_records(tmp_path):
    cli_corpus.write_inputs(tmp_path)
    expected = json.loads(cli_corpus.GOLDEN.read_text(encoding="utf-8"))
    # a changed entry is printed whole; rewrite the golden file with
    # `python tests/cli_corpus.py --regenerate` only for an intended change
    assert cli_corpus.changed(expected, cli_corpus.outcomes(tmp_path)) == []
