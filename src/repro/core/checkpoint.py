"""Checkpointing: save and restore variable state.

The paper highlights checkpoint/restart as a TF feature valuable to HPC
users ("our distributed CG solver with checkpoint-restart capability only
consists of less than 300 lines of code"). :class:`Saver` snapshots
variables to a real file on the host filesystem using the wire format of
:mod:`repro.core.serialization` and restores them into any compatible
session — including across process boundaries.
"""

from __future__ import annotations

import io
import os
from typing import Optional, Sequence

from repro.core.graph import Graph, GraphKeys, get_default_graph
from repro.core.ops import array_ops, state_ops
from repro.core.serialization import (
    _read_bytes,
    _read_str,
    _write_bytes,
    _write_str,
    decode_varint,
    deserialize_tensor,
    encode_varint,
    serialize_tensor,
)
from repro.errors import DataLossError, InvalidArgumentError, NotFoundError

__all__ = [
    "Saver",
    "latest_checkpoint",
    "latest_common_checkpoint",
    "read_checkpoint",
    "checkpoint_step",
]

_MAGIC = b"RPCK"  # "repro checkpoint"
_VERSION = 1


class Saver:
    """Saves and restores a set of variables.

    Restore works by feeding saved values through per-variable placeholder
    + assign ops created lazily on first use (TF builds the same ops under
    the hood).
    """

    def __init__(self, var_list: Optional[Sequence] = None,
                 graph: Optional[Graph] = None):
        graph = graph or get_default_graph()
        # Weakly, as an Operation holds it: the graph's SAVERS collection
        # holds the saver, and a dropped graph dies by reference count.
        self._graph_ref = graph._ref
        if var_list is None:
            var_list = graph.get_collection(GraphKeys.GLOBAL_VARIABLES)
        if not var_list:
            raise InvalidArgumentError("Saver needs at least one variable")
        self._vars = {v.name: v for v in var_list}
        self._restore_ops: dict[str, tuple] = {}
        graph.add_to_collection(GraphKeys.SAVERS, self)

    @property
    def _graph(self):
        return self._graph_ref()

    # -- save -----------------------------------------------------------------
    def save(self, sess, path: str, global_step: Optional[int] = None) -> str:
        """Snapshot all variables; returns the checkpoint file path."""
        if global_step is not None:
            path = f"{path}-{global_step}"
        names = sorted(self._vars)
        values = sess.run([self._vars[n].value() for n in names])
        if len(names) == 1:  # single-element fetch lists return bare values
            values = [values]
        return self._write(path, names, values)

    def save_gen(self, sess, path: str, global_step: Optional[int] = None):
        """Coroutine form of :meth:`save` for use inside sim processes."""
        if global_step is not None:
            path = f"{path}-{global_step}"
        names = sorted(self._vars)
        values = yield from sess.run_gen(
            [self._vars[n].value() for n in names]
        )
        if len(names) == 1:  # single-element fetch lists return bare values
            values = [values]
        return self._write(path, names, values)

    def _write(self, path: str, names, values) -> str:
        stream = io.BytesIO()
        stream.write(_MAGIC)
        stream.write(encode_varint(_VERSION))
        stream.write(encode_varint(len(names)))
        for name, value in zip(names, values):
            _write_str(stream, name)
            _write_bytes(stream, serialize_tensor(value))
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # Crash-atomic: write a temp file in the same directory, flush to
        # stable storage, then rename over the target. A crash mid-save
        # leaves either the previous complete checkpoint or a stray
        # ``.tmp`` (which latest_checkpoint ignores) — never a truncated
        # file under the real name.
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(stream.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        return path

    # -- restore -----------------------------------------------------------------
    def _restore_op(self, var):
        if var.name not in self._restore_ops:
            with self._graph.as_default():
                feed = array_ops.placeholder(
                    var.dtype, shape=var.shape,
                    name=f"{var.name}/restore_feed", graph=self._graph,
                )
                assign = state_ops.assign(var, feed, name=f"{var.name}/restore")
            self._restore_ops[var.name] = (feed, assign.op)
        return self._restore_ops[var.name]

    def _restore_plan(self, path: str):
        entries = read_checkpoint(path)
        missing = set(self._vars) - set(entries)
        if missing:
            raise NotFoundError(
                f"Checkpoint {path!r} lacks variables: {sorted(missing)}"
            )
        ops = []
        feeds = {}
        for name, var in self._vars.items():
            feed, assign_op = self._restore_op(var)
            ops.append(assign_op)
            feeds[feed.name] = entries[name]
        return ops, feeds

    def restore(self, sess, path: str) -> None:
        """Load a checkpoint and assign every variable it contains."""
        ops, feeds = self._restore_plan(path)
        sess.run(ops, feed_dict=feeds)

    def restore_gen(self, sess, path: str):
        """Coroutine form of :meth:`restore` for use inside sim processes."""
        ops, feeds = self._restore_plan(path)
        yield from sess.run_gen(ops, feed_dict=feeds)


def read_checkpoint(path: str) -> dict:
    """Raw contents of a checkpoint file: variable name -> value.

    Truncated or corrupt files raise :class:`DataLossError` naming the
    path (never a bare struct/decode crash), so callers can fall back to
    an older checkpoint.
    """
    if not os.path.exists(path):
        raise NotFoundError(f"No checkpoint at {path!r}")
    with open(path, "rb") as handle:
        stream = io.BytesIO(handle.read())
    if stream.read(4) != _MAGIC:
        raise DataLossError(f"{path!r} is not a repro checkpoint")
    version = decode_varint(stream)
    if version != _VERSION:
        raise DataLossError(f"Unsupported checkpoint version {version}")
    entries = {}
    try:
        for _ in range(decode_varint(stream)):
            name = _read_str(stream)
            entries[name] = deserialize_tensor(_read_bytes(stream))
    except DataLossError as exc:
        raise DataLossError(f"Corrupt checkpoint {path!r}: {exc}") from exc
    except (ValueError, UnicodeDecodeError) as exc:
        # Garbage past a valid header: bad lengths, undecodable names.
        raise DataLossError(f"Corrupt checkpoint {path!r}: {exc}") from exc
    return entries


def checkpoint_step(path: str) -> int:
    """The global step encoded in a ``prefix-STEP`` checkpoint path."""
    step_text = os.path.basename(path).rpartition("-")[2]
    try:
        return int(step_text)
    except ValueError:
        raise InvalidArgumentError(
            f"Checkpoint path {path!r} carries no -STEP suffix"
        ) from None


def latest_checkpoint(directory: str, prefix: str = "ckpt",
                      validate: bool = True) -> Optional[str]:
    """Highest-step *readable* checkpoint under ``directory`` (or None).

    In-progress ``.tmp`` files are ignored, and (with ``validate``, the
    default) candidates that fail :func:`read_checkpoint` — truncated or
    bad-magic leftovers of a crash — are skipped in favour of the next
    older step, so a fault-recovery driver always restores from the
    newest *intact* snapshot.
    """
    cut = latest_common_checkpoint(directory, [prefix], validate=validate)
    return cut[1][0] if cut is not None else None


def latest_common_checkpoint(
    directory: str, prefixes: Sequence[str], validate: bool = True,
) -> Optional[tuple[int, list[str]]]:
    """Newest step every prefix holds a checkpoint for: ``(step, paths)``.

    The consistent cut of independently checkpointing tasks: one task
    may be at step 6 and another at step 4 when a crash hits, and
    restoring such a mixed cut corrupts the run. A step qualifies only
    when every prefix has a finished ``prefix…-STEP`` file for it (and,
    with ``validate``, every one of them reads back intact); ``paths``
    follows ``prefixes``' order. None when no step qualifies.
    """
    if not os.path.isdir(directory):
        return None
    entries = sorted(os.listdir(directory))
    by_prefix: list[dict[int, str]] = []  # per prefix: step -> path
    for prefix in prefixes:
        found: dict[int, str] = {}
        for entry in entries:
            if not entry.startswith(prefix) or entry.endswith(".tmp"):
                continue
            try:
                found[int(entry.rpartition("-")[2])] = os.path.join(
                    directory, entry)
            except ValueError:
                continue
        by_prefix.append(found)
    common = set(by_prefix[0]).intersection(*by_prefix[1:])
    for step in sorted(common, reverse=True):
        paths = [found[step] for found in by_prefix]
        if not validate or all(map(_intact, paths)):
            return step, paths
    return None


def _intact(path: str) -> bool:
    try:
        read_checkpoint(path)
    except (DataLossError, NotFoundError):
        return False
    return True
