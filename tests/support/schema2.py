"""Schema-3 reports spelled in the schema-2 layout, the one before it.

Schema 2 named each outcome by its (N-1)-digit mode pattern plus a
description, listed the rows in lexicographic pattern order, keyed the
sample histogram by the pattern truncated at the first failure, echoed the
Fock cutoff and omega0 (= omega) in `jc_params`, and gave sample reports no
`report_schema`. to_schema2 rebuilds that document, so rendering it must
reproduce a schema-2 golden byte for byte.
"""
from __future__ import annotations

from . import fired_pattern

SUCCESS = "success: particles carry the distilled state"


def to_schema2(doc: dict, fock: int, min_index: int) -> dict:
    """The schema-2 form of a schema-3 report. fock is the --fock value the
    report ran with; min_index the 0-based minimal party (spec.min_index),
    which sample reports do not carry."""
    n = doc["n"]
    old = dict(doc)

    def pattern(fired):
        return "".join(map(str, fired_pattern(fired, n, min_index)))

    if "branches" in doc:
        old["report_schema"] = 2
        failure = f"failure: particles collapsed to |{'0' * n}>"
        rows = [
            {
                "pattern": pattern(row["fired"]),
                "probability": row["probability"],
                "description": failure if row["fired"] else SUCCESS,
            }
            for row in doc["branches"]
        ]
        old["branches"] = sorted(rows, key=lambda row: row["pattern"])
    else:
        del old["report_schema"]
        # a failure key stops at the mode that fired
        old["histogram"] = {
            pattern(row["fired"]).rstrip("0") if row["fired"] else "0" * (n - 1): row["count"]
            for row in doc["histogram"]
        }
    if "jc_params" in doc:
        omega = doc["jc_params"]["omega"]
        old["jc_params"] = {**doc["jc_params"], "fock_cutoff": fock, "omega0": omega}
    return old
