"""The scan-based key enforcement the point probe replaced — kept as an
oracle, as ``tests/sql/reference_lexer.py`` keeps the old lexer.

Until PR 15 ``Transaction._ensure_key_sets`` rebuilt, once per
transaction and table, the occupancy of every candidate key by scanning
all versions the snapshot sees, then kept the counts current as the
transaction buffered writes; ``_check_commit_keys`` re-validated the
inserts against the committed index minus the keys the transaction's
own deletes free.  The functions here compute the same answers from
scratch, by scans only — they read ``TableData.versions`` and the
transaction's buffers and never touch the version index or the overlay
the probe uses, so agreement is evidence, not tautology.
"""

from __future__ import annotations

from repro.errors import UniquenessViolationError, WriteConflictError


def scan_key_sets(txn, data) -> list[dict[tuple, int]]:
    """Per candidate key: canonical key tuple -> number of rows of the
    transaction's view carrying it (visible versions it has not
    deleted, plus its own pending inserts)."""
    keys = data.schema.candidate_keys
    key_sets: list[dict[tuple, int]] = [{} for _ in keys]
    name = data.schema.name
    rows = [version.row for version in txn.visible_versions(name)]
    rows.extend(txn.pending_inserts(name))
    for row in rows:
        for key_set, key in zip(key_sets, keys):
            kt = data._key_tuple(key.columns, row)
            key_set[kt] = key_set.get(kt, 0) + 1
    return key_sets


def scan_commit_error(txn, deleted_versions: dict[str, list]):
    """The exception type ``txn.commit()`` must raise (None: commits),
    decided by scans in the order the commit decides it.

    *deleted_versions* maps a table to the versions the transaction has
    buffered deletes for (the caller tracks them; the oracle does not
    read the transaction's delete buffer).
    """
    for versions in deleted_versions.values():
        if any(version.xmax is not None for version in versions):
            return WriteConflictError
    for name in txn.touched_tables():
        data = txn.database.table(name)
        keys = data.schema.candidate_keys
        live = [
            {
                data._key_tuple(key.columns, version.row)
                for version in data.versions
                if version.xmax is None
            }
            for key in keys
        ]
        freed = [
            {
                data._key_tuple(key.columns, version.row)
                for version in deleted_versions.get(name, ())
            }
            for key in keys
        ]
        for row in txn.pending_inserts(name):
            for key, live_keys, freed_keys in zip(keys, live, freed):
                kt = data._key_tuple(key.columns, row)
                if kt in live_keys and kt not in freed_keys:
                    return UniquenessViolationError
    return None
