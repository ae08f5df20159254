"""The one test module that reads the state store's layout.

``QuantumRegistry``'s tests pin its contract through its public calls
(see ``test_batched.py``). Three things no public call can do live here,
so a change of the store's shape edits ``protocol.py`` and this module
alone:
- ``corrupt_row``: corrupt a live row in place, as a fault in the store
  would after the registry checked the row;
- ``record_lookups``: record each stream that a registry lookup is given;
- ``add_checked``: register a family the way ``alice_sign`` registers rows
  that a kernel has just checked.

Not a test module: pytest collects only ``test_*.py``.
"""
import numpy as np

from aqsim.protocol import QuantumRegistry


def corrupt_row(registry: QuantumRegistry, label: str, how: str) -> None:
    """Corrupt, in place, the live row that holds ``label``: scaled by 1e200
    (``huge``), set to NaN (``nan``) or scaled by 1.1 (``scaled``)."""
    family, row = next((family, column.index(label))
                       for column, (family, _) in registry._columns.items() if label in column)
    if how == "nan":
        family.amps[row] = np.nan
    else:
        family.amps[row] *= 1e200 if how == "huge" else 1.1


def record_lookups(monkeypatch) -> list:
    """From now on, each stream any registry looks up, as a tuple, in order."""
    looked_up, column = [], QuantumRegistry._column

    def recorded(self, labels):
        looked_up.append(tuple(labels))
        return column(self, labels)

    monkeypatch.setattr(QuantumRegistry, "_column", recorded)
    return looked_up


def add_checked(registry: QuantumRegistry, columns, amps: np.ndarray) -> None:
    """Register a family as the signer's checked stacks enter: every label
    and shape check of ``add_columns``, and no second ``check_rows``."""
    registry._add_checked_columns(columns, amps)
