"""The per-solution report assembly that ``enumerate_all`` replaced with
columns, kept verbatim as the differential reference: one ``BoolFn`` per
solution, sorted by (weight, bits), then one catalog lookup and one
``SolutionRecord`` per function."""

from __future__ import annotations

from degone.boolfn import BoolFn
from degone.catalogs import CatalogError, catalog, catalog_entry
from degone.classify import SolutionRecord


def sorted_functions(domain, solutions) -> list[BoolFn]:
    """The solution bit masks, in any order, as BoolFns sorted by
    (weight, bits)."""
    return sorted(
        (BoolFn(domain, b) for b in solutions), key=lambda f: (f.weight, f.bits)
    )


def records_and_counts(domain, kept: list[BoolFn]):
    """The records and counts of a report on the sorted functions ``kept``."""
    judged = True
    try:
        catalog(domain)
    except CatalogError:
        judged = False
    records = []
    trivial_count = 0
    for fn in kept:
        if not judged:
            records.append(SolutionRecord(fn.to_hex(), fn.weight, None, []))
            continue
        entry = catalog_entry(fn)
        trivial = entry is not None
        trivial_count += trivial
        note = None
        if not trivial and domain.family == "polar":
            note = "conjecture-form candidate"
        records.append(
            SolutionRecord(
                fn.to_hex(),
                fn.weight,
                trivial,
                list(entry.descriptor_json) if trivial else [],
                note,
            )
        )
    counts = {"total": len(records)}
    if judged:
        counts["trivial"] = trivial_count
        counts["nontrivial"] = len(records) - trivial_count
    return records, counts
