"""SPLASH-2-like synthetic trace generators.

Each generator models the *communication structure* of its namesake:

- **fft** — tiled butterfly computation over a shared matrix chunk
  punctuated by all-to-all transposes (bursty cache-to-cache traffic).
- **radix** — streaming reads of private keys with writes into dense
  bucket runs of shared histogram space (write invalidations,
  migratory lines).
- **barnes** — irregular, read-mostly walks over a shared tree with a
  hot upper level, strong path reuse, and occasional updates (wide
  read sharing).
- **lu** — blocked dense factorization: a rotating owner produces the
  pivot row that every other processor consumes
  (single-producer, all-consumer sharing).
- **ocean** — nearest-neighbour stencil on a strip-partitioned grid
  (boundary-row sharing between adjacent processors).

``scale`` multiplies the reference count (benches use ~1.0; unit tests
use ~0.05). The generators are tuned for realistic cache behaviour on
the Figure-5 machine: L2 miss rates of a few percent, bus utilisation
well below saturation, and a cache-to-cache share of bus traffic in
the tens of percent — the regime in which the paper's numbers live.
"""

from __future__ import annotations

from ..smp.trace import Workload
from .base import (SHARED_BASE, WORD_BYTES, assemble, conflict_block,
                   interleave, make_builders, private_base)


def _words(num_bytes: int) -> int:
    return num_bytes // WORD_BYTES


def fft(num_cpus: int, scale: float = 1.0, seed: int = 1) -> Workload:
    """Tiled butterfly phases + all-to-all transpose of a shared matrix."""
    builders = make_builders(num_cpus, seed * 7919 + 11)
    matrix_bytes = int(1.5 * (1 << 20))          # shared matrix ~1.5 MB
    matrix_words = _words(matrix_bytes)
    chunk_words = matrix_words // num_cpus
    phases = 10
    tiles_per_phase = max(1, int(2.4 * scale))
    tile_words = 256                             # 2 KB tiles
    passes_per_tile = 4
    # One tile pass: read a twiddle factor, then read-modify-write
    # every other word of the tile.
    pass_flags = b"\x00\x00\x01" * (tile_words // 2) * passes_per_tile

    for phase in range(phases):
        for cpu, builder in enumerate(builders):
            base_private = private_base(cpu) + 4096
            my_chunk = SHARED_BASE + cpu * chunk_words * WORD_BYTES
            twiddles = [base_private + (word * WORD_BYTES) % (1 << 14)
                        for word in range(0, tile_words, 2)]
            # Butterfly compute: several passes over each tile of our
            # chunk (reads of twiddle factors from private memory).
            for tile in range(tiles_per_phase):
                tile_base = (my_chunk
                             + ((phase * tiles_per_phase + tile)
                                * tile_words % chunk_words) * WORD_BYTES)
                touched = range(tile_base,
                                tile_base + tile_words * WORD_BYTES,
                                2 * WORD_BYTES)
                builder.extend(pass_flags,
                               interleave(twiddles, touched, touched)
                               * passes_per_tile)
            # Rotating twiddle-factor table in the capacity-sensitive
            # region: the owner of this phase refreshed block
            # (phase % 12) earlier; everyone re-reads the previous few
            # blocks. A 4 MB L2 retains them (hits / cache-to-cache);
            # a 1 MB L2 conflict-evicts them (memory refetches).
            if cpu == phase % num_cpus:
                for line in range(8):
                    builder.write(conflict_block(phase % 12) + line * 64)
            if cpu == (phase + 1) % num_cpus:
                block = conflict_block((phase - 6) % 12)
                for line in range(8):
                    builder.read(block + line * 64)
            # Transpose: read a slice of every other CPU's chunk — the
            # words its butterfly just produced — and write into our
            # own chunk (the all-to-all exchange).
            slice_words = max(8, (tiles_per_phase * tile_words)
                              // (4 * num_cpus))
            for other in range(num_cpus):
                if other == cpu:
                    continue
                their_chunk = (SHARED_BASE
                               + other * chunk_words * WORD_BYTES)
                for word in range(slice_words):
                    source = ((phase * tiles_per_phase * tile_words)
                              + cpu * slice_words + word) % chunk_words
                    builder.read(their_chunk + source * WORD_BYTES)
                    builder.write(my_chunk
                                  + ((other * slice_words + word)
                                     % chunk_words) * WORD_BYTES)
    return assemble("fft", builders, scale=scale, seed=seed,
                    shared_bytes=matrix_bytes, phases=phases)


def radix(num_cpus: int, scale: float = 1.0, seed: int = 2) -> Workload:
    """Streaming key reads with dense-run shared-bucket writes."""
    builders = make_builders(num_cpus, seed * 104729 + 13)
    # Dense histogram space: small enough that CPUs collide on bucket
    # lines (the migratory read-modify-write sharing radix is known for)
    # while the streamed key arrays provide the memory-bound traffic.
    bucket_bytes = 256 << 10
    bucket_words = _words(bucket_bytes)
    keys = max(1, int(9000 * scale))
    run_words = 8                                # one line per bucket run
    keys_per_run = 24

    for cpu, builder in enumerate(builders):
        rng = builder.rng
        key_base = private_base(cpu) + 8192
        run_start = 0
        for key_index in range(keys):
            builder.read(key_base + (key_index * WORD_BYTES) % (1 << 20))
            # Radix scatters into bucket runs: a fresh random run every
            # two dozen keys, line-dense read-modify-writes within it.
            if key_index % keys_per_run == 0:
                run_start = rng.randint(
                    0, bucket_words // run_words - 1) * run_words
            bucket = run_start + rng.randint(0, run_words - 1)
            address = SHARED_BASE + bucket * WORD_BYTES
            builder.read(address)
            builder.write(address)
            if key_index % 64 == 63:
                # Rank exchange: peek at a neighbour's dense counters.
                neighbour = (cpu + 1) % num_cpus
                counter = (SHARED_BASE + bucket_bytes
                           + neighbour * 4096
                           + rng.randint(0, 63) * WORD_BYTES)
                builder.read(counter)
    return assemble("radix", builders, scale=scale, seed=seed,
                    shared_bytes=bucket_bytes, keys_per_cpu=keys)


def barnes(num_cpus: int, scale: float = 1.0, seed: int = 3) -> Workload:
    """Read-mostly tree walks with hot upper levels and path reuse."""
    builders = make_builders(num_cpus, seed * 6151 + 17)
    tree_bytes = 2 << 20                         # shared tree ~2 MB
    tree_words = _words(tree_bytes)
    hot_words = tree_words // 256                # upper tree levels
    walks = max(1, int(900 * scale))
    walk_length = 8
    reuse_probability = 0.95

    for cpu, builder in enumerate(builders):
        rng = builder.rng
        body_base = private_base(cpu) + 16384
        recent: list = []
        for walk in range(walks):
            for depth in range(walk_length):
                if depth < 3 or (recent
                                 and rng.random() < reuse_probability):
                    if depth < 3:
                        node = rng.randint(0, hot_words - 1)
                    else:
                        node = rng.choice(recent)
                else:
                    node = rng.randint(0, tree_words - 4)
                    recent.append(node)
                    if len(recent) > 192:
                        recent.pop(0)
                address = SHARED_BASE + node * WORD_BYTES
                # A tree node spans several words: read a few fields.
                builder.read(address)
                builder.read(address + WORD_BYTES)
                builder.read(address + 2 * WORD_BYTES)
            if walk % 64 == 0:
                # Periodic centre-of-mass summary exchange through the
                # capacity-sensitive region (rotating writer).
                epoch = walk // 64
                if cpu == epoch % num_cpus:
                    for line in range(8):
                        builder.write(conflict_block(epoch % 12)
                                      + line * 64)
                if cpu == (epoch + 1) % num_cpus:
                    block = conflict_block((epoch - 6) % 12)
                    for line in range(8):
                        builder.read(block + line * 64)
            # Update our body's fields (private) and occasionally the
            # shared cell the body hangs off (5% of walks).
            body = body_base + (walk % 128) * 64
            builder.read(body)
            builder.write(body)
            if rng.random() < 0.05:
                node = rng.randint(0, hot_words - 1)
                builder.write(SHARED_BASE + node * WORD_BYTES)
    return assemble("barnes", builders, scale=scale, seed=seed,
                    shared_bytes=tree_bytes, walks_per_cpu=walks)


def lu(num_cpus: int, scale: float = 1.0, seed: int = 4) -> Workload:
    """Rotating pivot-row producer with all-consumer readers."""
    builders = make_builders(num_cpus, seed * 3571 + 19)
    matrix_bytes = 2 << 20                       # shared matrix ~2 MB
    row_bytes = 2048
    rows = matrix_bytes // row_bytes
    iterations = max(2, int(55 * scale))
    row_words = _words(row_bytes)
    block_rows = 8                               # each CPU's warm block
    half_row = row_words // 2                    # every other word

    for iteration in range(iterations):
        owner = iteration % num_cpus
        pivot_row = SHARED_BASE + (iteration % rows) * row_bytes
        # Producer updates the pivot row at the head of the iteration.
        builders[owner].extend(b"\x01" * row_words,
                               range(pivot_row, pivot_row + row_bytes,
                                     WORD_BYTES))
        # Rotating U-diagonal blocks in the capacity-sensitive region:
        # the owner refreshes one block per iteration; consumers later
        # re-read blocks from several iterations back (retained by a
        # 4 MB L2, conflict-evicted from a 1 MB L2).
        for line in range(8):
            builders[owner].write(conflict_block(iteration % 12)
                                  + line * 64)
        consumer = builders[(owner + 1) % num_cpus]
        stale_block = conflict_block((iteration - 6) % 12)
        for line in range(8):
            consumer.read(stale_block + line * 64)
        # Every processor first updates its own (revisited, so warm
        # after the first sweep) block rows — which doubles as the
        # barrier slack that lets the producer finish — then consumes
        # the pivot row.
        for cpu, builder in enumerate(builders):
            block_base = (SHARED_BASE
                          + (rows - (cpu + 1) * block_rows) * row_bytes)
            block_row = block_base + (iteration % block_rows) * row_bytes
            updated = range(block_row, block_row + row_bytes,
                            2 * WORD_BYTES)
            builder.extend(b"\x00\x01" * half_row,
                           interleave(updated, updated))
            if cpu != owner:
                builder.compute(400)  # barrier slack
                builder.extend(bytes(half_row),
                               range(pivot_row, pivot_row + row_bytes,
                                     2 * WORD_BYTES))
    return assemble("lu", builders, scale=scale, seed=seed,
                    shared_bytes=matrix_bytes, iterations=iterations)


def ocean(num_cpus: int, scale: float = 1.0, seed: int = 5) -> Workload:
    """Strip-partitioned stencil with boundary-row exchange."""
    builders = make_builders(num_cpus, seed * 2887 + 23)
    row_bytes = 4096
    rows_per_cpu = 32
    grid_rows = rows_per_cpu * num_cpus
    iterations = max(2, int(8 * scale))
    sweep_step = 2
    stride = 4 * sweep_step * WORD_BYTES
    # Per visited word: read above, below and own, then write own.
    row_flags = b"\x00\x00\x00\x01" * (row_bytes // stride)

    def row_address(row: int) -> int:
        return SHARED_BASE + (row % grid_rows) * row_bytes

    for iteration in range(iterations):
        for cpu, builder in enumerate(builders):
            first = cpu * rows_per_cpu
            last = first + rows_per_cpu - 1
            for row in range(first, last + 1):
                mine = row_address(row)
                # Neighbour rows: interior rows read within the strip,
                # boundary rows read the adjacent CPU's edge row.
                above = row_address(row - 1) if row > 0 else mine
                below = (row_address(row + 1)
                         if row < grid_rows - 1 else mine)
                own = range(mine, mine + row_bytes, stride)
                builder.extend(row_flags, interleave(
                    range(above, above + row_bytes, stride),
                    range(below, below + row_bytes, stride), own, own))
    return assemble("ocean", builders, scale=scale, seed=seed,
                    shared_bytes=grid_rows * row_bytes,
                    iterations=iterations)
