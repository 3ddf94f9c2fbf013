"""Rerun every argv of tests/corpus.json, rewrite the file and print each row
that changed.

    PYTHONPATH=src python tests/make_corpus.py

To add a row, add ``{"argv": [...]}`` to the file and run this script: it
fills in the rest.  Standard library only, no flags.
"""

import shlex

import corpus


def main() -> None:
    old = corpus.load()
    new = [corpus.run(row["argv"]) for row in old]
    for before, after in zip(old, new):
        changed = [key for key in after if before.get(key) != after[key]]
        if changed:
            print("%s: %s" % (shlex.join(after["argv"]), ", ".join(changed)))
    corpus.PATH.write_text(corpus.dump(new))


if __name__ == "__main__":
    main()
