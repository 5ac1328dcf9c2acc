"""Byte identity of the CLI on the seeded corpus: every argv of
corpus.argvs() prints what corpus.sha256 froze (exit code, sha256 of
stdout and of stderr)."""

import json

from corpus import DIGESTS, argvs, digest_line


def test_the_corpus_is_the_seeded_list():
    frozen = [line.split("\t")[0] for line in DIGESTS.read_text().splitlines()]
    assert frozen == [json.dumps(argv) for argv in argvs()]


def test_every_argv_prints_its_frozen_digest():
    frozen = DIGESTS.read_text().splitlines()
    changed = [want.split("\t")[0] for want, argv in zip(frozen, argvs())
               if digest_line(argv) != want]
    assert changed == []
