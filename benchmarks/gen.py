"""Seeded input generator for the evaluation benchmark.

``generate(workload, seed, out_dir)`` writes everything one ``evaluate`` run
reads: ground truth, one prediction file per API, an embedding store, an
optional precomputed sentence-vector file and a ``config.json`` whose paths
are relative to ``out_dir``. The same (workload, seed) always gives the same
bytes. The generator does not import the program: the few rules it must
mirror (label cleaning, top-k order, bag-text rendering) are restated here.

Traffic dimensions the scorer depends on, and how they vary:

* truth labels per image (5-15) and synonyms per object (1-3);
* the unresolvable share, per workload and per API;
* resolvable labels stored under each of the four spelling permutations
  (as-is, no-space, underscore, title-underscore), and raw labels written
  in several spellings that clean to the same text;
* API overlap: APIs draw most objects from one shared per-image pool, each
  at its own rate, and the rest privately;
* clustered vectors: labels of one concept lie around a shared centroid at
  varying distances, so some non-exact cells clear the 0.4 threshold and
  transport problems have non-trivial optima.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size and switches of one workload."""

    images: int
    apis: int
    top_ks: tuple[int, ...]
    store_format: str  # "binary" or "text"
    store_rows: int
    dim: int
    unknown_share: float
    semantic: bool = True
    wmd: bool = True
    sentence: bool = False
    concepts: int = 150
    labels_per_concept: int = 22


WORKLOADS: dict[str, Shape] = {
    # The north-star shape (1000 images) scaled to 150 images so that one
    # evaluate call takes seconds and a run can report a median.
    "grid": Shape(images=150, apis=4, top_ks=(1, 3, 5), store_format="binary",
                  store_rows=20_000, dim=300, unknown_share=0.09),
    # A large text store against a handful of images: loading dominates.
    "vocab-load": Shape(images=6, apis=1, top_ks=(1,), store_format="text",
                        store_rows=250_000, dim=50, unknown_share=0.09),
    # Label work and the file sentence provider, no grids or transport.
    "labels-sentence": Shape(images=150, apis=8, top_ks=(1, 3, 5, 10),
                             store_format="binary", store_rows=20_000, dim=300,
                             unknown_share=0.12, semantic=False, wmd=False,
                             sentence=True),
}

OBJECTS_PER_API = 10
POOL_SIZE = 16
SENTENCE_DIM = 48
SENTENCE_MODEL = "bench-bow"

_SYLLABLES = ("ka", "to", "bre", "min", "sol", "va", "ri", "den", "lu", "mar",
              "pe", "gon", "sti", "qua", "ne", "tor", "hal", "vi", "zen", "do",
              "ru", "fel", "ca", "mo", "tri", "len", "sa", "bo", "nix", "pra")
_DISALLOWED = re.compile(r"[^a-z0-9 ]+")
_MULTISPACE = re.compile(r" +")


def clean_label(raw: str) -> str:
    """The program's label cleaning: lowercase, keep [a-z0-9 ], squeeze."""
    return _MULTISPACE.sub(" ", _DISALLOWED.sub("", raw.lower())).strip()


@dataclass(frozen=True)
class Label:
    text: str          # cleaned form, as the scorer sees it
    concept: int
    stored_as: str | None  # store token, None when unresolvable


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))


def _stored_token(text: str, rng: random.Random) -> str:
    """Pick the spelling permutation under which the store keeps a label."""
    words = text.split(" ")
    title = "_".join(w.capitalize() for w in words)
    if len(words) == 1:
        return title if rng.random() < 0.15 else text
    return rng.choice(("".join(words), "_".join(words), title))


def _vocabulary(shape: Shape, rng: random.Random) -> list[list[Label]]:
    """Concepts, each a list of distinct labels; some labels unresolvable."""
    seen: set[str] = set()
    tokens: set[str] = set()
    concepts: list[list[Label]] = []
    for concept in range(shape.concepts):
        labels: list[Label] = []
        while len(labels) < shape.labels_per_concept:
            words = [_word(rng) for _ in range(1 if rng.random() < 0.7 else 2)]
            text = " ".join(words)
            if text in seen:
                continue
            token = _stored_token(text, rng)
            # Unresolvable when no permutation of the text is stored; the
            # resolver tries every spelling, so the token must be unique too.
            variants = {text.replace(" ", ""), text.replace(" ", "_"),
                        "_".join(w.capitalize() for w in text.split(" ")), text}
            if variants & tokens:
                continue
            seen.add(text)
            if rng.random() < shape.unknown_share:
                labels.append(Label(text, concept, None))
            else:
                tokens.add(token)
                labels.append(Label(text, concept, token))
        concepts.append(labels)
    return concepts


def _raw_spelling(text: str, rng: random.Random) -> str:
    """A raw label that cleans back to ``text``."""
    roll = rng.random()
    if roll < 0.65:
        return text
    if roll < 0.75:
        return text.title()
    if roll < 0.83:
        return text.upper()
    if roll < 0.91:
        return "  " + text.replace(" ", "  ") + " "
    return text + rng.choice((".", "!", "?", "*"))


def _store_matrix(concepts: list[list[Label]], shape: Shape,
                  rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    """Tokens and float32 vectors: clustered label rows, then filler rows."""
    dim = shape.dim
    centroids = rng.standard_normal((shape.concepts, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    for concept, labels in enumerate(concepts):
        for label in labels:
            if label.stored_as is None:
                continue
            noise = rng.standard_normal(dim)
            noise *= rng.uniform(0.45, 1.5) / np.linalg.norm(noise)
            tokens.append(label.stored_as)
            rows.append(centroids[concept] + noise)
    filler = shape.store_rows - len(tokens)
    if filler < 0:
        raise ValueError("store_rows is smaller than the label vocabulary")
    tokens.extend(f"tok{i:07d}" for i in range(filler))
    matrix = np.empty((shape.store_rows, dim), dtype=np.float32)
    matrix[:len(rows)] = np.asarray(rows)
    matrix[len(rows):] = rng.standard_normal((filler, dim)) / np.sqrt(dim)
    order = rng.permutation(shape.store_rows)
    return [tokens[i] for i in order], matrix[order]


def _write_binary_store(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    rows, dim = matrix.shape
    little = matrix.astype("<f4")
    with path.open("wb") as handle:
        handle.write(f"{rows} {dim}\n".encode("ascii"))
        for token, row in zip(tokens, little):
            handle.write(token.encode("utf-8") + b" " + row.tobytes() + b"\n")


def _fixed_width(block: np.ndarray) -> np.ndarray:
    """Rows of 8-byte number fields: "0.12345 " or "-0.1234 ", "\n" last.

    Positives keep five decimals and negatives four, so every field has the
    same width and a whole block formats without a Python loop per number.
    """
    n, dim = block.shape
    out = np.empty((n, dim, 8), dtype=np.uint8)
    negative = block < 0
    digits = np.where(negative, np.minimum(np.rint(-block * 1e4), 9999),
                      np.minimum(np.rint(block * 1e5), 99999)).astype(np.int64)
    zero, point, minus = ord("0"), ord("."), ord("-")
    out[..., 0] = np.where(negative, minus, zero)
    out[..., 1] = np.where(negative, zero, point)
    out[..., 2] = np.where(negative, point, zero + digits // 10_000 % 10)
    for position, power in zip(range(3, 7), (1000, 100, 10, 1)):
        out[..., position] = zero + digits // power % 10
    out[..., 7] = ord(" ")
    out[:, -1, 7] = ord("\n")
    return out.reshape(n, dim * 8)


def _write_text_store(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    rows, dim = matrix.shape
    with path.open("wb") as handle:
        handle.write(f"{rows} {dim}\n".encode("ascii"))
        for begin in range(0, rows, 10_000):
            block = _fixed_width(matrix[begin:begin + 10_000].astype(np.float64))
            handle.writelines(token.encode("utf-8") + b" " + line.tobytes()
                              for token, line in zip(tokens[begin:begin + 10_000], block))


def _images(concepts: list[list[Label]], shape: Shape, rng: random.Random):
    """Per image: raw truth labels and a shared pool of candidate objects."""
    # Label counts cycle through 5..15 so that every seed has the same total.
    sizes = [5 + i % 11 for i in range(shape.images)]
    rng.shuffle(sizes)
    images = []
    for size in sizes:
        scene = rng.sample(range(shape.concepts), rng.randint(2, 4))
        truth_labels = [rng.choice(concepts[rng.choice(scene)]) for _ in range(size)]
        truth_raw = [_raw_spelling(label.text, rng) for label in truth_labels]
        if rng.random() < 0.1:
            truth_raw.append(_raw_spelling(truth_labels[0].text, rng))
        pool = [_object(truth_labels, scene, concepts, rng) for _ in range(POOL_SIZE)]
        images.append((truth_raw, pool))
    return images


def _object(truth: list[Label], scene: list[int], concepts: list[list[Label]],
            rng: random.Random) -> tuple[str, ...]:
    """Synonym labels of one predicted object, as raw spellings."""
    roll = rng.random()
    if roll < 0.4:
        primary = rng.choice(truth)
    elif roll < 0.8:
        primary = rng.choice(concepts[rng.choice(scene)])
    else:
        primary = rng.choice(concepts[rng.randrange(len(concepts))])
    synonyms = [primary]
    for _ in range(rng.randint(1, 3) - 1):
        candidate = rng.choice(concepts[primary.concept])
        if candidate not in synonyms:
            synonyms.append(candidate)
    return tuple(_raw_spelling(label.text, rng) for label in synonyms)


def _api_objects(pool, overlap: float, junk: list[str], junk_share: float,
                 concepts: list[list[Label]], rng: random.Random) -> list[dict]:
    picked = rng.sample(range(len(pool)), len(pool))
    objects = []
    for slot in range(OBJECTS_PER_API):
        if rng.random() < overlap:
            synonyms = pool[picked[slot]]
        elif rng.random() < junk_share:
            synonyms = (_raw_spelling(rng.choice(junk), rng),)
        else:
            label = rng.choice(concepts[rng.randrange(len(concepts))])
            synonyms = (_raw_spelling(label.text, rng),)
        entry: dict = {"labels": list(synonyms)}
        if rng.random() >= 0.04:  # a few objects carry no confidence
            entry["confidence"] = round(rng.uniform(0.05, 0.99), 3)
        objects.append(entry)
    return objects


def _top_k(objects: list[dict], k: int) -> list[dict]:
    """The program's top-k: stable by descending confidence, None last."""
    return sorted(objects, key=lambda o: -o["confidence"] if "confidence" in o
                  else float("inf"))[:k]


def _bow_text(raw_labels) -> str | None:
    words = [clean_label(raw) for raw in raw_labels]
    words = [w for w in words if w]
    return " ".join(words) if words else None


def _sentence_vectors(texts: list[str], seed: int) -> list[str]:
    """One JSON line per distinct text: a bag of per-word random vectors."""
    word_vectors: dict[str, np.ndarray] = {}
    lines = []
    for text in sorted(set(texts)):
        total = np.zeros(SENTENCE_DIM)
        for word in text.split(" "):
            if word not in word_vectors:
                key = int.from_bytes(hashlib.sha256(
                    f"{seed}:{word}".encode()).digest()[:8], "little")
                word_vectors[word] = np.random.default_rng(key).standard_normal(
                    SENTENCE_DIM)
            total += word_vectors[word]
        vector = [round(x, 6) for x in (total / np.linalg.norm(total)).tolist()]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        lines.append(json.dumps({"digest": digest, "model": SENTENCE_MODEL,
                                 "vector": vector}) + "\n")
    return lines


API_NAMES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
             "hotel")
#: Per API: share of objects taken from the shared per-image pool, and share
#: of the private rest that are junk labels (mostly unresolvable). Fixed per
#: API rather than drawn per seed, so seeds differ in content, not in mix.
API_PROFILES = ((0.8, 0.1), (0.65, 0.3), (0.5, 0.2), (0.7, 0.45),
                (0.55, 0.15), (0.75, 0.25), (0.45, 0.35), (0.6, 0.05))


def generate(workload: str, seed: int, out_dir: str | Path,
             images: int | None = None) -> Path:
    """Write the workload's inputs for ``seed`` into ``out_dir``.

    ``images`` overrides the workload's image count (for one-off runs at
    another size). Returns the path of the run config.
    """
    shape = WORKLOADS[workload]
    if images is not None:
        shape = Shape(**{**shape.__dict__, "images": images})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    np_rng = np.random.default_rng([seed, len(workload)])

    concepts = _vocabulary(shape, rng)
    junk = [_word(rng) + " " + _word(rng) for _ in range(200)]
    tokens, matrix = _store_matrix(concepts, shape, np_rng)
    if shape.store_format == "binary":
        model_name = "model.bin"
        _write_binary_store(out / model_name, tokens, matrix)
    else:
        model_name = "model.txt"
        _write_text_store(out / model_name, tokens, matrix)
    del matrix

    images_data = _images(concepts, shape, rng)
    image_ids = [f"{i + 1}.jpg" for i in range(shape.images)]
    rng.shuffle(image_ids)  # file order differs from natural order
    with (out / "truth.jsonl").open("w", encoding="utf-8") as handle:
        for image_id, (truth_raw, _) in zip(image_ids, images_data):
            handle.write(json.dumps({"image_id": image_id, "labels": truth_raw}) + "\n")

    texts: list[str] = []
    if shape.sentence:
        texts.extend(_bow_text(truth_raw) for truth_raw, _ in images_data)
    prediction_names = []
    for index in range(shape.apis):
        api_id = API_NAMES[index]
        overlap, junk_share = API_PROFILES[index]
        name = f"preds_{api_id}.jsonl"
        prediction_names.append(name)
        with (out / name).open("w", encoding="utf-8") as handle:
            for image_id, (_, pool) in zip(image_ids, images_data):
                objects = _api_objects(pool, overlap, junk, junk_share, concepts, rng)
                handle.write(json.dumps({"image_id": image_id, "api_id": api_id,
                                         "objects": objects}) + "\n")
                if shape.sentence:
                    for k in shape.top_ks:
                        texts.append(_bow_text(
                            s for o in _top_k(objects, k) for s in o["labels"]))

    config: dict = {"ground_truth": "truth.jsonl", "predictions": prediction_names,
                    "embeddings": model_name, "top_ks": list(shape.top_ks)}
    if not shape.semantic:
        config["semantic"] = False
    if not shape.wmd:
        config["wmd"] = False
    if shape.sentence:
        with (out / "sentence.jsonl").open("w", encoding="utf-8") as handle:
            handle.writelines(_sentence_vectors([t for t in texts if t], seed))
        config["sentence"] = {"mode": "file", "path": "sentence.jsonl",
                              "model": SENTENCE_MODEL}
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return config_path


def units(workload: str) -> int:
    """(api, k, image) units one evaluate call scores."""
    shape = WORKLOADS[workload]
    return shape.apis * len(shape.top_ks) * shape.images


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--images", type=int, default=None)
    args = parser.parse_args()
    print(generate(args.workload, args.seed, args.out, args.images))


if __name__ == "__main__":
    main()
