import json

from fit_corpus import CORPUS, lines


def test_every_fit_replays_its_corpus_record():
    # classify, projection, solve and decompose answers, the uniqueness,
    # accessible, genericity, models and plot commands' output and error
    # lines, and each report's to_json_dict() in its key order are those of
    # the committed corpus, exact ones byte for byte; a deliberate change
    # rewrites the file with tests/write_fit_corpus.py
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    actual = lines()
    for want, got in zip(expected, actual):
        if want != got:
            key = json.loads(want)["key"]
            assert json.loads(got)["key"] == key, f"record order changed at {key}"
            raise AssertionError(f"record {key} differs:\nexpected {want}\nactual   {got}")
    assert len(actual) == len(expected)
