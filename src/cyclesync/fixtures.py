"""Synthetic input-output fixtures for tests, demos and smoke runs."""

from __future__ import annotations

from .networks import FlowRecord, FlowTable

__all__ = ["demo_flow_table"]

_COUNTRIES = ("AAA", "BBB", "CCC")
_COUNTRY_SIZE = {"AAA": 1.0, "BBB": 0.75, "CCC": 0.55}

# balanced sector-pair intermediate intensities within a country; balance
# keeps the spectrum of I - W real, so the fixture also exercises the
# spectral machinery without complex-eigenvalue caveats
_PAIR = {
    ("AGR", "MFG"): 30.0,
    ("AGR", "TRD"): 6.0,
    ("MFG", "CON"): 20.0,
    ("MFG", "TRD"): 16.0,
    ("MFG", "SVC"): 14.0,
    ("SVC", "TRD"): 10.0,
    ("SVC", "CON"): 6.0,
}
_SELF = {"AGR": 4.0, "MFG": 25.0, "SVC": 18.0, "CON": 6.0, "TRD": 10.0}
_FINAL = {"AGR": 10.0, "MFG": 60.0, "SVC": 55.0, "CON": 30.0, "TRD": 40.0}

# cross-country channels (manufacturing-heavy), symmetric per pair; the
# uneven pair intensities keep the country-splitting eigenvalue simple
_CROSS = {("AAA", "BBB"): 9.0, ("AAA", "CCC"): 6.0, ("BBB", "CCC"): 4.0}
_CROSS_SECTORS = (("MFG", 1.0), ("TRD", 0.5), ("AGR", 0.25))


def demo_flow_table() -> FlowTable:
    """Three countries, five sectors, manufacturing-centred balanced flows.

    Countries differ in size and in openness, so country blocks are well
    connected internally with two small cross-country eigenvalues of
    ``I - W`` (about 0.06 and 0.07) below a wide gap.
    """
    records = []
    for country in _COUNTRIES:
        size = _COUNTRY_SIZE[country]
        for (a, b), value in _PAIR.items():
            records.append(FlowRecord(a, country, b, country, value * size))
            records.append(FlowRecord(b, country, a, country, value * size))
        for sector, value in _SELF.items():
            records.append(FlowRecord(sector, country, sector, country,
                                      value * size))
        for sector, value in _FINAL.items():
            records.append(FlowRecord(sector, country, "FinD", country,
                                      value * size))
    for (c1, c2), value in _CROSS.items():
        for sector, weight in _CROSS_SECTORS:
            records.append(FlowRecord(sector, c1, sector, c2, value * weight))
            records.append(FlowRecord(sector, c2, sector, c1, value * weight))
    return FlowTable(records)
