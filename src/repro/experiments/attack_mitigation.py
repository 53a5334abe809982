"""E7 — published controlled-channel attacks vs. Autarky (§2.2, §7.3).

Each scenario runs a *real* attack implementation against the simulated
page tables:

* **Hunspell / page-fault tracer** — Xu et al.'s word-recovery attack:
  trace the dictionary pages, match chain-walk signatures.
* **Hunspell / A-D-bit monitor** — the fault-free variant: sample and
  clear accessed bits between queries.
* **libjpeg / page-fault tracer** — recover the image's block-
  complexity bitmap from which IDCT code page executes per block.
* **FreeType / page-fault tracer** — recover rendered text from
  per-glyph instruction-fetch signatures.

On vanilla SGX the attacks recover the secrets with high accuracy.
Under Autarky the same attack code recovers nothing: fault addresses
are masked, the silent ERESUME is rejected by hardware, and the
enclave's handler terminates on the first tampered page (the §5.3
termination attack — one bit per restart is all that remains).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.freetype import FreeType
from repro.apps.hunspell import Dictionary, Hunspell
from repro.apps.jpeg import JpegCodec, make_block_image
from repro.attacks.ad_monitor import AdBitMonitor
from repro.attacks.controlled_channel import PageFaultTracer
from repro.attacks.oracles import SignatureOracle, trace_accuracy
from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.errors import EnclaveTerminated
from repro.experiments.formatting import fmt_pct, render_table
from repro.runtime.loader import LibraryImage
from repro.sgx.params import PAGE_SIZE


@dataclass
class AttackRow:
    scenario: str
    defense: str            # "vanilla" or "autarky"
    recovery_accuracy: float
    enclave_terminated: bool
    silent_resume_rejected: bool
    observed_faults: int


def _system(defense, heap_pages=4_096, quota_pages=3_000):
    policy = "baseline" if defense == "vanilla" else "pin_all"
    return AutarkySystem(SystemConfig.for_policy(
        policy,
        epc_pages=quota_pages + 4_096,
        quota_pages=quota_pages,
        enclave_managed_budget=quota_pages - 512,
        heap_pages=heap_pages,
        code_pages=64,
        data_pages=64,
        runtime_pages=8,
    ))


def _arm(system, defense, warm, attacker):
    """Warm the victim — ``warm`` preloaded by the OS on vanilla SGX,
    pinned and sealed under Autarky — then attach and arm
    ``attacker``."""
    if defense == "vanilla":
        system.runtime.preload_os(warm)
    else:
        system.runtime.preload(warm, pin=True)
        system.policy.seal()
    system.attach_attacker(attacker)
    attacker.arm()
    return attacker


def _label(mode):
    """The original unmap tracer is "the fault tracer"; its variants
    go by their primitive."""
    return "fault tracer" if mode == "unmap" else f"{mode} tracer"


def _terminated(victim):
    """Run the victim; returns whether the enclave was terminated."""
    try:
        victim()
    except EnclaveTerminated:
        return True
    return False


# -- Hunspell ----------------------------------------------------------------


def _collapse(pages):
    """Drop consecutive duplicate pages: a still-mapped page cannot
    re-fault, so the tracer's view collapses immediate repeats."""
    out = []
    for page in pages:
        if not out or out[-1] != page:
            out.append(page)
    return tuple(out)


def hunspell_fault_attack(defense, n_words=20_000, checks=150,
                          mode="unmap"):
    system = _system(defense)
    engine = system.engine()
    heap = system.runtime.regions["heap"]
    lib = system.runtime.loader.load(LibraryImage("hunspell", code_pages=4))
    dictionary = Dictionary("en_US", heap.start, n_words)
    hunspell = Hunspell(engine, [dictionary],
                        code_page=lib.code_page(0))

    words = [f"word{i}" for i in range(400)]
    hunspell.load("en_US")
    warm = dictionary.pages() + [lib.code_page(i) for i in range(4)]
    tracer = _arm(system, defense, warm, PageFaultTracer(
        system.kernel, system.enclave, warm, mode=mode))

    secret_text = [words[(7 * i) % len(words)] for i in range(checks)]
    terminated = _terminated(
        lambda: hunspell.check_text(secret_text, "en_US")
    )

    accuracy = 0.0
    if not terminated:
        signatures = {
            w: _collapse((lib.code_page(0),) + dictionary.signature(w))
            for w in words
        }
        oracle = SignatureOracle(signatures)
        recovered = oracle.recover(tracer.log.trace)
        accuracy = trace_accuracy(secret_text, recovered)
    return AttackRow(
        f"Hunspell word recovery ({_label(mode)})", defense, accuracy,
        terminated, tracer.log.silent_resume_rejected,
        tracer.log.intercepted,
    )


def hunspell_ad_attack(defense, n_words=20_000, checks=120):
    system = _system(defense)
    engine = system.engine()
    heap = system.runtime.regions["heap"]
    dictionary = Dictionary("en_US", heap.start, n_words)
    hunspell = Hunspell(engine, [dictionary])

    words = [f"word{i}" for i in range(400)]
    hunspell.load("en_US")
    monitor = _arm(system, defense, dictionary.pages(), AdBitMonitor(
        system.kernel, system.enclave, dictionary.pages()))

    secret_text = [words[(11 * i) % len(words)] for i in range(checks)]
    observed = []
    terminated = False
    try:
        for word in secret_text:
            hunspell.check(word, "en_US")
            accessed, _written = monitor.sample()
            observed.append(frozenset(accessed))
    except EnclaveTerminated:
        terminated = True

    accuracy = 0.0
    if not terminated:
        by_signature = {}
        for w in words:
            by_signature.setdefault(
                frozenset(dictionary.signature(w)), []
            ).append(w)
        recovered = []
        for signature in observed:
            match = by_signature.get(signature)
            recovered.append(match[0] if match and len(match) == 1
                             else None)
        correct = sum(
            1 for truth, guess in zip(secret_text, recovered)
            if truth == guess
        )
        accuracy = correct / len(secret_text)
    return AttackRow(
        "Hunspell word recovery (A/D-bit monitor)", defense, accuracy,
        terminated, False, len(observed),
    )


def hunspell_remap_attack(defense, n_words=20_000, checks=150):
    """The wrong-frame variant [68]: point dictionary PTEs at other
    frames; the EPCM check turns accesses into faults that still leak
    page numbers on vanilla SGX."""
    return hunspell_fault_attack(defense, n_words, checks, mode="remap")


# -- libjpeg -----------------------------------------------------------------


def jpeg_fault_attack(defense, blocks=(24, 24)):
    system = _system(defense)
    engine = system.engine()
    heap = system.runtime.regions["heap"]
    lib = system.runtime.loader.load(LibraryImage("libjpeg", code_pages=8))
    image = make_block_image(*blocks, pattern="disc")
    in_pages, temp_pages = 8, 8
    input_start = heap.start
    temp_start = input_start + in_pages * PAGE_SIZE
    output_start = temp_start + temp_pages * PAGE_SIZE
    codec = JpegCodec(engine, lib, input_start, temp_start, output_start,
                      temp_pages=temp_pages)

    warm = (
        [lib.code_page(i) for i in range(8)]
        + [input_start + i * PAGE_SIZE for i in range(in_pages)]
        + [temp_start + i * PAGE_SIZE for i in range(temp_pages)]
        + codec.output_pages(image)
    )
    full = codec.idct_page_for(True)
    skip = codec.idct_page_for(False)
    huffman = lib.code_page(codec.HUFFMAN_PAGE)
    tracer = _arm(system, defense, warm, PageFaultTracer(
        system.kernel, system.enclave, [huffman, full, skip]))

    terminated = _terminated(lambda: codec.decode(image))

    accuracy = 0.0
    if not terminated:
        bits = [page == full for page in tracer.log.trace
                if page in (full, skip)]
        matching = sum(
            1 for truth, guess in zip(image.complexity, bits)
            if truth == guess
        )
        accuracy = matching / image.n_blocks
    return AttackRow(
        "libjpeg image recovery (fault tracer)", defense, accuracy,
        terminated, tracer.log.silent_resume_rejected,
        tracer.log.intercepted,
    )


# -- FreeType ----------------------------------------------------------------


def freetype_fault_attack(defense, renders=160, mode="unmap"):
    system = _system(defense)
    engine = system.engine()
    heap = system.runtime.regions["heap"]
    lib = system.runtime.loader.load(
        LibraryImage("freetype", code_pages=48)
    )
    ft = FreeType(engine, lib, bitmap_start=heap.start)

    code = [lib.code_page(i) for i in range(48)]
    warm = code + [heap.start + i * PAGE_SIZE for i in range(8)]
    tracer = _arm(system, defense, warm, PageFaultTracer(
        system.kernel, system.enclave, code, mode=mode))

    secret = "".join(
        ft.glyphs[(13 * i) % len(ft.glyphs)] for i in range(renders)
    )
    terminated = _terminated(lambda: ft.render_text(secret))

    accuracy = 0.0
    if not terminated:
        oracle = SignatureOracle(
            {g: ft.signature(g) for g in ft.glyphs}
        )
        recovered = oracle.recover(tracer.log.trace)
        accuracy = trace_accuracy(list(secret), recovered)
    return AttackRow(
        f"FreeType text recovery ({_label(mode)})", defense, accuracy,
        terminated, tracer.log.silent_resume_rejected,
        tracer.log.intercepted,
    )


def freetype_protect_attack(defense, renders=160):
    """The permission-downgrade variant [74]: make the rasterizer's
    code pages non-executable instead of unmapping them — the fault
    stream (and the recovered text) is the same."""
    return freetype_fault_attack(defense, renders, mode="protect")


# -- harness -----------------------------------------------------------------

SCENARIOS = [
    hunspell_fault_attack,
    hunspell_ad_attack,
    jpeg_fault_attack,
    freetype_fault_attack,
    freetype_protect_attack,
    hunspell_remap_attack,
]


def run():
    rows = []
    for scenario in SCENARIOS:
        for defense in ("vanilla", "autarky"):
            rows.append(scenario(defense))
    return rows


def format_table(rows):
    return render_table(
        ["scenario", "defense", "recovered", "terminated",
         "silent-resume rejected", "faults seen"],
        [
            (r.scenario, r.defense, fmt_pct(r.recovery_accuracy),
             r.enclave_terminated, r.silent_resume_rejected,
             r.observed_faults)
            for r in rows
        ],
        title="E7: published controlled-channel attacks vs Autarky",
    )


def main():
    rows = run()
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    main()
