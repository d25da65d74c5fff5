"""Rewrite tests/fit_corpus.jsonl from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/write_fit_corpus.py

A change to the file is a change to what a fit answers: list the records
that moved, by key, with the change that moved them.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fit_corpus import CORPUS, lines  # noqa: E402

if __name__ == "__main__":
    text = "".join(line + "\n" for line in lines())
    CORPUS.write_text(text, encoding="utf-8")
    print(f"{CORPUS.name}: {text.count(chr(10))} records, "
          f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")
