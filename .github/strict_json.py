"""Fail unless every non-empty line of each named file is one valid JSON
document. NaN and Infinity, which Python's json module accepts by
default, are rejected. Every JSON output of the repo's tools (ape_lint,
ape_batch, the checkpoint, ape_client responses) is one compact line.

usage: python3 .github/strict_json.py FILE...
"""
import json
import sys


def reject(constant):
    raise ValueError("non-standard JSON constant " + constant)


for path in sys.argv[1:]:
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    if not lines:
        sys.exit(path + ": no JSON document")
    for n, line in enumerate(lines, 1):
        try:
            json.loads(line, parse_constant=reject)
        except ValueError as e:
            sys.exit("%s:%d: %s" % (path, n, e))
    print("%s: %d JSON document(s) ok" % (path, len(lines)))
