"""The one writer of every output file.

A CSV file is its ``# ``-prefixed header lines (the effective
configuration, and any line a writer adds to it), its column line, then
its lines, each of which its writer formats.  A JSON file is one line:
``json.dumps`` without an indent runs the C encoder.
"""

import json


def write_csv(path, header_lines, columns, lines):
    """Write ``# <line>`` for each header line, the column line, then
    each of ``lines`` (any iterable of strings), one per line."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{columns}\n")
        for line in lines:
            fh.write(f"{line}\n")


def write_json(path, payload):
    """Write payload as JSON on one line."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
