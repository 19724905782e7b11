"""A dense numpy form of one rank's registration law, for the tests only.

``repro.ecosystem.world`` decides registration with one rule, the scalar
``_confirm`` (and its columnar twin ``_confirm_block``).  This module
restates the validity and quality parts of that rule as masks over the
whole raw DL-1 grid, written independently of both, so the tests can
compare them slot for slot and place uniforms exactly on each slot's
threshold.

The grid of a label of length ``L`` is laid out flat as
``[deletions: L][transpositions: L-1][substitutions: L*A][additions:
(L+1)*A]``, position-major with the alphabet innermost: the order
``enumerate_edit_ops`` walks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.typogen import DOMAIN_ALPHABET
from repro.ecosystem.world import (
    _ALPHA_SIZE,
    _CODE2IDX,
    _char_tables,
    _position_weights,
    _sections,
)

_ALPHA_CODES = np.frombuffer(DOMAIN_ALPHABET.encode("ascii"), dtype=np.uint8)
_HYPHEN = ord("-")


def decode(label: str, flat: int) -> Tuple[str, int, str]:
    """Flat raw-grid index of ``label``'s grid -> ``(op, index, char)``."""
    n_del, n_trans, n_sub, _ = _sections(len(label))
    if flat < n_del:
        return "deletion", flat, ""
    flat -= n_del
    if flat < n_trans:
        return "transposition", flat, ""
    flat -= n_trans
    if flat < n_sub:
        return ("substitution", flat // _ALPHA_SIZE,
                DOMAIN_ALPHABET[flat % _ALPHA_SIZE])
    flat -= n_sub
    return ("addition", flat // _ALPHA_SIZE,
            DOMAIN_ALPHABET[flat % _ALPHA_SIZE])


def grid_masks(label: str) -> Tuple[np.ndarray, np.ndarray,
                                    Tuple[int, int, int, int]]:
    """(valid mask, quality, section sizes) over the raw DL-1 grid.

    ``valid`` reproduces ``enumerate_edit_ops``' dedup/validity rules
    slot for slot; ``quality`` is the squatter preference law (edit
    type, fat-finger, visual distance) evaluated for every slot in the
    scalar law's operation order, so a slot registers iff it is valid
    and ``u < min(0.95, reg_p * quality)``.
    """
    codes = np.frombuffer(label.encode("ascii"), dtype=np.uint8)
    idx = _CODE2IDX[codes]
    if np.any(idx < 0):
        raise ValueError(f"label {label!r} has characters outside the "
                         "domain alphabet")
    length = len(label)
    adj, cost = _char_tables()
    posw = _position_weights(length)
    inv_len = 3.0 / max(1, length)

    def quality_factor(vis: np.ndarray) -> np.ndarray:
        return np.maximum(0.2, 1.5 - vis * inv_len)

    # deletions --------------------------------------------------------------
    del_valid = np.zeros(length, dtype=bool)
    if 2 <= length <= 64:
        del_valid[:] = True
        del_valid[1:] = codes[1:] != codes[:-1]
        if codes[1] == _HYPHEN:
            del_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            del_valid[length - 1] = False
    doubled = np.zeros(length, dtype=bool)
    doubled[:-1] |= codes[:-1] == codes[1:]
    doubled[1:] |= codes[1:] == codes[:-1]
    del_vis = np.where(doubled, 0.3, 0.9) * posw[:length]
    del_q = 6.0 * 1.6 * quality_factor(del_vis)

    # transpositions ---------------------------------------------------------
    n_trans = max(0, length - 1)
    trans_valid = np.zeros(n_trans, dtype=bool)
    if n_trans and length <= 63:
        trans_valid[:] = codes[:-1] != codes[1:]
        if codes[1] == _HYPHEN:
            trans_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            trans_valid[n_trans - 1] = False
    trans_q = 5.0 * 1.6 * quality_factor(0.5 * posw[:n_trans])

    # substitutions (position-major, alphabet innermost) ---------------------
    same_char = _ALPHA_CODES[None, :] == codes[:, None]        # (L, A)
    sub_valid = ~same_char
    if length > 63:
        sub_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        sub_valid[0, hyphen_col] = False
        sub_valid[length - 1, hyphen_col] = False
    sub_adj = adj[idx]                                          # (L, A)
    sub_vis = cost[idx] * posw[:length, None]
    sub_q = np.where(sub_adj, 1.6, 1.0) * quality_factor(sub_vis)

    # additions --------------------------------------------------------------
    prev_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_eq[1:] = same_char
    next_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_eq[:length] = same_char
    prev_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_adj[1:] = sub_adj
    next_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_adj[:length] = sub_adj
    add_ff1 = prev_eq | prev_adj | next_eq | next_adj
    add_doubles = prev_eq | next_eq
    add_valid = ~prev_eq                       # run dedup: same as earlier slot
    if length + 1 > 63:
        add_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        add_valid[0, hyphen_col] = False
        add_valid[length, hyphen_col] = False
    add_vis = np.where(add_doubles, 0.3, 1.0) * posw[:, None]
    add_q = (0.45 * np.where(add_ff1, 1.6, 1.0) * quality_factor(add_vis))

    quality = np.concatenate([del_q, trans_q, sub_q.ravel(), add_q.ravel()])
    valid = np.concatenate([del_valid, trans_valid, sub_valid.ravel(),
                            add_valid.ravel()])
    return valid, quality, _sections(length)
