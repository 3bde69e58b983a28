"""Correctness gate for one job's outcome.

Run outside the timed region.  A job passes when it exits 0 with stdout that
validates against its command's schema and carries a true certificate, or
exits 1 with a schema-valid ``error`` document on stderr (a documented
domain error).  On the default seed the output must also match the stored
reference: byte for byte for exact commands, under ``jsonio.diff_json``'s
float tolerance for the parabolic (floating-point) commands.
"""

import hashlib
import json
import re

FLOAT_SCHEMAS = {"fatou", "census"}
_DIRECTORY = re.compile(r'"directory": "[^"]*"')
_INTEGER = re.compile(r"\d+")


def normalise(stdout):
    """Drop the absolute corpus directory that ``corpus run`` embeds."""
    return _DIRECTORY.sub('"directory": "<corpus>"', stdout)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_entry(job, code, stdout):
    """What the reference file stores for one job."""
    entry = {"argv": digest(job.key()), "code": code}
    if job.schema in FLOAT_SCHEMAS and code == 0:
        entry["doc"] = json.loads(stdout)
    else:
        entry["stdout"] = digest(normalise(stdout))
    return entry


def _certificate_problems(schema, doc):
    if schema == "conjugacy" and doc["residual_zero"] is not True:
        return ["residual_zero is not true"]
    if schema == "resolution":
        return [f"{key} is not true" for key in ("ledger_ok", "final")
                if doc[key] is not True]
    if schema == "first_integral" and "integral" in doc \
            and doc.get("verified") is not True:
        return ["integral present but verified is not true"]
    if schema == "corpus_report" and doc["failed"] != 0:
        return [f"corpus run failed {doc['failed']} cases"]
    return []


def check(job, code, stdout, stderr, jsonio, reference=None):
    """Problems found in one job's outcome; an empty list means it passed."""
    from jsonschema import ValidationError

    if code == 0:
        try:
            doc = json.loads(stdout)
            jsonio.validate(doc, job.schema)
        except (ValueError, ValidationError) as exc:
            return [f"stdout invalid for schema {job.schema}: {exc}"[:300]]
        problems = _certificate_problems(job.schema, doc)
    elif code == 1 and job.schema != "corpus_report":
        try:
            jsonio.validate(json.loads(stderr), "error")
        except (ValueError, ValidationError) as exc:
            return [f"exit 1 without a valid error document: {exc}"[:300]]
        problems = []
    else:
        return [f"exit status {code!r}: {stderr.strip()[-300:]}"]
    if reference is not None:
        problems += _reference_problems(job, code, stdout, reference, jsonio)
    return problems


def _reference_problems(job, code, stdout, ref, jsonio):
    if ref["argv"] != digest(job.key()):
        return ["job differs from the reference job (generator changed?)"]
    if ref["code"] != code:
        return [f"exit status {code} != reference {ref['code']}"]
    if "doc" in ref:
        diffs = jsonio.diff_json(ref["doc"], json.loads(stdout))
        return [f"differs from reference: {d}" for d in diffs[:3]]
    if ref["stdout"] != digest(normalise(stdout)):
        return ["stdout differs from reference"]
    return []


def max_coeff_bits(job, stdout):
    """Largest bit length of an integer written in an exact output."""
    if job.schema in FLOAT_SCHEMAS:
        return 0
    return max((int(m).bit_length() for m in _INTEGER.findall(stdout)),
               default=0)
