"""Output checks computed apart from casar.

Each check returns a list of problems; an empty list means the output
passed.  None of them calls the casar function whose output it checks:
labels are recomputed by brute force, network outputs by a plain-numpy
forward over the documented encoding, checkpoints are parsed from the
documented byte layout, and digests are taken over the raw weights.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

TIE = 1e-12  # distances this close to a threshold may round either way


# ---------------------------------------------------------------------------
# contact labels


def brute_force_labels(joints, vertices, pose, eta_c: float, eta_d: float):
    """Contact/distant bits for (T, J, 3) joints against (T, 4, 4)-posed vertices.

    Returns (contact, distant, ambiguous) boolean arrays of shape (T, J);
    ``ambiguous`` marks distances within ``TIE`` of either threshold.
    """
    posed = np.einsum("tij,vj->tvi", pose[:, :3, :3], vertices) + pose[:, None, :3, 3]
    diff = joints[:, :, None, :] - posed[:, None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)).min(axis=-1)
    ambiguous = (np.abs(dist - eta_c) <= TIE) | (np.abs(dist - eta_d) <= TIE)
    return dist < eta_c, dist > eta_d, ambiguous


def clip_joints(clip) -> np.ndarray:
    """(T, J, 3) joints, left hand first when present, as the formats document."""
    return np.stack([
        np.vstack([f.hand.right] if f.hand.left is None else [f.hand.left, f.hand.right])
        for f in clip.frames
    ])


def check_labels(clips, vertices_by_mesh: dict, samples, eta_c: float, eta_d: float) -> list[str]:
    """Every sample's bits equal brute force on its clip frame, ignoring ties."""
    problems = []
    expected = [(c.clip_id, i) for c in clips for i in range(len(c.frames))]
    got = [(s.clip_id, s.frame_index) for s in samples]
    if got != expected:
        return [f"label order/count mismatch: {len(got)} samples for {len(expected)} frames"]
    at = 0
    for clip in clips:
        n = len(clip.frames)
        pose = np.stack([f.object.world_from_canonical for f in clip.frames])
        contact, distant, ambiguous = brute_force_labels(
            clip_joints(clip), vertices_by_mesh[clip.mesh_id], pose, eta_c, eta_d)
        got_c = np.stack([s.target.contact for s in samples[at:at + n]]).astype(bool)
        got_d = np.stack([s.target.distant for s in samples[at:at + n]]).astype(bool)
        bad = ((got_c != contact) | (got_d != distant)) & ~ambiguous
        if bad.any():
            t, j = np.argwhere(bad)[0]
            problems.append(f"{clip.clip_id} frame {t} joint {j}: label differs from brute force "
                            f"({int(bad.sum())} bits)")
        at += n
    return problems


def label_bits(samples) -> np.ndarray:
    """(N, 2J) uint8 matrix of [contact | distant] bits."""
    return np.stack([np.concatenate([s.target.contact, s.target.distant]) for s in samples])


def check_same_labels(derived, reference, what: str) -> list[str]:
    """``derived`` carries exactly the provenance and bits of ``reference``."""
    if [(s.clip_id, s.frame_index) for s in derived] != [
            (s.clip_id, s.frame_index) for s in reference]:
        return [f"{what}: samples do not line up"]
    bad = int((label_bits(derived) != label_bits(reference)).sum())
    return [f"{what}: {bad} bits differ"] if bad else []


# ---------------------------------------------------------------------------
# networks


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(weights, bias, activation code) per layer, parsed from the documented layout.

    Magic ``CASARNET``, u32 version, u32 layer count, per layer u32 d_in,
    u32 d_out and u8 activation code, then per layer row-major float32
    weights followed by the bias; little-endian throughout.
    """
    buf = open(path, "rb").read()
    if buf[:8] != b"CASARNET":
        raise ValueError(f"{path}: bad magic")
    _version, count = struct.unpack_from("<II", buf, 8)
    off = 16
    dims = []
    for _ in range(count):
        dims.append(struct.unpack_from("<IIB", buf, off))
        off += 9
    layers = []
    for d_in, d_out, code in dims:
        w = np.frombuffer(buf, "<f4", d_in * d_out, off).reshape(d_out, d_in)
        off += 4 * d_in * d_out
        b = np.frombuffer(buf, "<f4", d_out, off)
        off += 4 * d_out
        layers.append((w, b, code))
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} trailing bytes")
    return layers


RELU, SIGMOID, IDENTITY = 0, 1, 2  # activation codes of the checkpoint format


def mlp(layers, x: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Plain forward in float64; weights are cast a block of rows at a time."""
    a = np.asarray(x, dtype=np.float64)
    for w, b, code in layers:
        z = np.empty((a.shape[0], w.shape[0]))
        for r in range(0, w.shape[0], chunk):
            z[:, r:r + chunk] = a @ np.asarray(w[r:r + chunk], dtype=np.float64).T
        z += np.asarray(b, dtype=np.float64)
        if code == RELU:
            a = np.maximum(z, 0.0)
        elif code == SIGMOID:
            with np.errstate(over="ignore"):  # exp overflow is a probability of 0
                a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
    return a


def model_layers(model) -> list[tuple[np.ndarray, np.ndarray, int]]:
    codes = {"relu": RELU, "sigmoid": SIGMOID, "identity": IDENTITY}
    return [(w, b, codes[act]) for w, b, act in zip(model.weights, model.biases, model.activations)]


def frame_rows(frames, object_classes: int) -> np.ndarray:
    """Documented frame encoding: [left joints | right joints | 21 pose points | one-hot]."""
    rows = []
    for f in frames:
        hands = [f.hand.right] if f.hand.left is None else [f.hand.left, f.hand.right]
        onehot = np.zeros(object_classes)
        onehot[f.object.label_id] = 1.0
        rows.append(np.concatenate([h.ravel() for h in hands]
                                   + [f.object.pose_points.ravel(), onehot]))
    return np.stack(rows)


def resample_index(length: int, n_frames: int) -> np.ndarray:
    """Documented resampling rule: output frame j takes source frame floor(j*L/n)."""
    return np.array([j * length // n_frames for j in range(n_frames)])


def reference_scores(f_layers, g_layers, clips, n_frames: int, object_classes: int,
                     binarize: bool):
    """g's outputs per clip, and each clip's f outputs, via the documented pipeline."""
    feats, probs = [], []
    for clip in clips:
        frames = [clip.frames[i] for i in resample_index(len(clip.frames), n_frames)]
        rows = frame_rows(frames, object_classes)
        p = mlp(f_layers, rows)
        probs.append(p)
        q = (p >= 0.5).astype(np.float64) if binarize else p
        feats.append(np.hstack([rows, q]).ravel())
    return mlp(g_layers, np.stack(feats)), probs


def check_scores(got: np.ndarray, want: np.ndarray, tol: float, skip=None) -> list[str]:
    """Scores agree within ``tol`` and so do argmaxes wherever the top two are > tol apart.

    ``tol`` is loose enough for a float32 path.  Rows flagged in ``skip``
    are not compared (their inputs sit on a binarization edge).
    """
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if skip is not None and skip[i]:
            continue
        err = float(np.abs(g - w).max())
        if not err <= tol:
            problems.append(f"clip {i}: scores differ from the reference by {err:.3g}")
            continue
        top2 = np.sort(w)[-2:]
        if top2[1] - top2[0] > tol and int(np.argmax(g)) != int(np.argmax(w)):
            problems.append(f"clip {i}: argmax {int(np.argmax(g))} != reference {int(np.argmax(w))}")
    return problems


def parameter_digest(model) -> str:
    h = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def check_training(element_acc: float, top1: float, f_history, g_history,
                   f_digest_before: str, f_digest_after: str) -> list[str]:
    """The gates and the properties staged training must have."""
    problems = []
    if not element_acc >= 0.95:
        problems.append(f"held-out element accuracy {element_acc:.4f} < 0.95")
    if not top1 >= 0.90:
        problems.append(f"held-out top-1 {top1:.4f} < 0.90")
    if f_digest_before != f_digest_after:
        problems.append("f's parameters changed during g training")
    for name, hist in (("f", f_history), ("g", g_history)):
        if not hist[-1] < hist[0]:
            problems.append(f"{name} loss did not fall: {hist[0]:.6g} -> {hist[-1]:.6g}")
    return problems
