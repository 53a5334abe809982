"""One enclave under a scripted host.

The chaos campaign and the model checker each boot one enclave program
and drive it while a scripted Byzantine host acts on it.
:class:`ScriptedEnclave` is what they share: the boot and warm-up, the
handles a relaunch re-points (:meth:`~ScriptedEnclave.adopt`), and the
acts whose consequence is the enclave's — touching a page the host
forged or clobbered, killing the enclave and restoring it through the
recovery manager, rolling its checkpoints back.  The host side of every
act is :mod:`repro.host.adversary`; which page or enclave to hit stays
with the caller.
"""

from __future__ import annotations

from repro.core.system import AutarkySystem, EnclaveProgram
from repro.errors import EnclaveCrashed
from repro.host import adversary
from repro.recovery.state import fingerprint


class ScriptedEnclave:
    """An enclave program booted on its own kernel, with a scripted host.

    A caller runs :meth:`warm_up`, then gives :attr:`manager` a
    :class:`~repro.recovery.manager.RecoveryManager` on the warmed
    runtime before any crash act.  Each act calls :meth:`record` once
    it has landed and before its consequence can fail stop; a
    consequence the enclave should have refused is appended to
    :attr:`violations`.
    """

    def __init__(self, config, warmup, name):
        system = AutarkySystem(config)
        self.kernel = system.kernel
        self.runtime = system.runtime
        self.enclave = system.enclave
        #: The relaunch recipe recovery uses after a scripted crash: the
        #: same config on the same kernel, with the same warm-up.
        self.program = EnclaveProgram(config=config, warmup=warmup,
                                      name=name)
        self.engine = None
        self.manager = None
        self.recoveries = 0
        self.violations = []

    def warm_up(self):
        """Run the warm-up on the first incarnation (a relaunch runs it
        inside :meth:`EnclaveProgram.launch`) and build its engine."""
        self.program.warmup(self.runtime)
        self.engine = self.program.engine(self.runtime)

    def adopt(self, runtime):
        """Point every handle at a relaunched incarnation."""
        self.runtime = runtime
        self.enclave = runtime.enclave
        self.engine = self.program.engine(runtime)

    def record(self, detail):
        """An act has landed; a subclass may log it."""

    def probe(self, target, violation):
        """Touch ``target``, which the host just made hostile.  The
        touch must fail stop, so getting past it is ``violation``."""
        self.engine.data_access(target)
        self.violations.append(violation)

    def tamper(self, store, target, replay=False):
        """Forge (or replay) the sealed blob of ``target`` in ``store``,
        then touch it: the reload must fail integrity verification."""
        adversary.tamper(store, self.enclave, target, replay)
        what = "replayed" if replay else "tampered"
        self.record(f"{what} blob at {target:#x}")
        self.probe(target, f"enclave resumed on {what} page {target:#x} "
                           "without aborting")

    def clobber(self, target, clear_ad=False):
        """Unmap a resident page (or clear its A/D bits), then touch it:
        the fault must be diagnosed as an attack — servicing it is the
        controlled-channel leak."""
        adversary.clobber(self.kernel, target, clear_ad)
        self.record(f"clobbered resident {target:#x}")
        self.probe(target, f"OS-induced fault on resident page {target:#x} "
                           "was serviced instead of detected")

    def crash_and_restore(self, tear=None):
        """The host kills the enclave, ``tear`` (a
        :class:`~repro.recovery.journal.Journal` method) tearing the
        tail journal record as it dies.  The supervisor path reclaims
        the corpse, relaunches the program and replays the sealed
        journal onto it; the restored state must match the uncrashed
        witness trace."""
        try:
            self.manager.crash()
        except EnclaveCrashed:
            pass  # the scripted host is what killed it
        if tear is not None:
            tear(self.manager.journal)
        self.record("host killed the enclave")
        self.kernel.driver.reclaim_enclave(self.enclave)
        runtime = self.program.launch(self.kernel)
        applied = self.manager.restore(runtime)
        if self.manager.keep_trace and (
                fingerprint(runtime) != self.manager.trace[applied]):
            self.violations.append(
                f"recovered state diverged from the uncrashed witness at "
                f"journal position {applied}")
        self.adopt(runtime)
        self.recoveries += 1

    def rollback(self):
        """Seal a fresh checkpoint, have the host drop it, then crash:
        the restore must detect the rollback through the monotonic
        counter and fail stop with an integrity abort."""
        self.manager.seal_checkpoint()
        self.manager.checkpoints.blobs.pop()
        self.crash_and_restore()
        self.violations.append(
            "restore accepted a rolled-back checkpoint set")
