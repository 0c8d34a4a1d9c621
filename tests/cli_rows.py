"""Rows of a ``corr_radiance.cli.Table`` as Python values, for assertions."""

import math

from corr_radiance.cli import Labels, Table


def rows_of(table: Table) -> list[tuple]:
    """Every row of ``table``, made by one ``table.block`` call, as a tuple of
    float, None (an empty cell) and str."""
    columns = []
    for col in table.block(table.rows):
        if isinstance(col, Labels):
            columns.append([col.names[code] for code in col.codes.tolist()])
        else:
            columns.append([None if math.isnan(v) else v for v in col.tolist()])
    return list(zip(*columns))
