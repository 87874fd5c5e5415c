"""Edge-case tests across the Hadoop layer and bridges."""

import pytest

from repro.perf import Backend, PAPER_CALIBRATION
from repro.perf.calibration import GB, MB
from repro.cluster import Network, Node, QS22_SPEC
from repro.core.simexec import SimulatedCluster
from repro.gpu import GPUDevice, GPUOffloadRuntime, GPUSpec
from repro.hadoop import JobConf, MapKernel
from repro.hadoop.job import JobState
from repro.hadoop.tasks import _map_output_bytes
from repro.sim import Environment

CAL = PAPER_CALIBRATION


# --------------------------------------------------------------------------- #
# Empty / trivial jobs                                                          #
# --------------------------------------------------------------------------- #
def test_zero_byte_input_job_succeeds_immediately():
    sim = SimulatedCluster(2)
    sim.ingest("/empty", 0)
    conf = JobConf(name="z", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/empty", num_map_tasks=4)
    result = sim.run_job(conf)
    assert result.state is JobState.SUCCEEDED
    assert result.num_maps == 0
    # Only setup + cleanup elapsed.
    assert result.makespan_s < CAL.job_setup_s + CAL.job_cleanup_s + 1


def test_single_map_task_job():
    sim = SimulatedCluster(1)
    sim.ingest("/in", 64 * MB)
    conf = JobConf(name="one", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/in", num_map_tasks=1)
    result = sim.run_job(conf)
    assert result.state is JobState.SUCCEEDED
    assert result.num_maps == 1
    assert result.total_records == 1


def test_more_mappers_than_data_blocks():
    """num_map_tasks exceeding block count still tiles correctly."""
    sim = SimulatedCluster(2)
    sim.ingest("/in", 64 * MB)  # one block
    conf = JobConf(name="many", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/in", num_map_tasks=4)
    result = sim.run_job(conf)
    assert result.state is JobState.SUCCEEDED
    assert result.counters["map_input_bytes"] == 64 * MB


def test_missing_input_file_fails_job_cleanly():
    sim = SimulatedCluster(2)
    conf = JobConf(name="ghost", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/does-not-exist", num_map_tasks=2)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    result = sim.env.run(job.completion)
    assert result.state is JobState.FAILED
    assert "job setup failed" in result.failure_reason
    # The scheduler survives: a subsequent valid job still runs.
    sim.ingest("/in", 64 * MB)
    ok = sim.run_job(JobConf(name="after", workload="aes",
                             backend=Backend.JAVA_PPE,
                             input_path="/in", num_map_tasks=2))
    assert ok.state is JobState.SUCCEEDED


# --------------------------------------------------------------------------- #
# Kernel bridge                                                                 #
# --------------------------------------------------------------------------- #
def make_node(with_cells=True, with_gpu=False):
    env = Environment()
    node = Node(env, 1, QS22_SPEC, CAL)
    if with_cells:
        from repro.cell.processor import CellProcessor

        node.cells = [CellProcessor(env, 0, CAL), CellProcessor(env, 1, CAL)]
    if with_gpu:
        node.gpus = [GPUDevice(env, 0)]
    return env, node


def test_bridge_empty_backend_is_free():
    env, node = make_node()
    kernel = MapKernel(node, 0, Backend.EMPTY, "aes", CAL)

    def run():
        yield from kernel.process_record(64 * MB)
        yield from kernel.run_samples(1e9)
        return env.now

    assert env.run(env.process(run())) == 0.0
    assert kernel.kernel_busy_s == 0.0


def test_bridge_slot_selects_cell_socket():
    env, node = make_node()
    k0 = MapKernel(node, 0, Backend.CELL_SPE_DIRECT, "aes", CAL)
    k1 = MapKernel(node, 1, Backend.CELL_SPE_DIRECT, "aes", CAL)
    assert k0._runtime.cell is node.cells[0]
    assert k1._runtime.cell is node.cells[1]


def test_bridge_java_busy_accounting():
    env, node = make_node(with_cells=False)
    kernel = MapKernel(node, 0, Backend.JAVA_PPE, "aes", CAL)

    def run():
        yield from kernel.process_record(16 * MB)

    env.run(env.process(run()))
    assert kernel.kernel_busy_s == pytest.approx(16 * MB / CAL.aes_ppe_bw)
    assert node.kernel_busy_s == kernel.kernel_busy_s


def test_bridge_gpu_busy_is_device_time():
    env, node = make_node(with_cells=False, with_gpu=True)
    kernel = MapKernel(node, 0, Backend.GPU_TESLA, "pi", CAL)

    def run():
        yield from kernel.run_samples(1e9)

    env.run(env.process(run()))
    assert kernel.kernel_busy_s == pytest.approx(1e9 / CAL.gpu_pi_rate, rel=0.01)


def test_bridge_missing_cell_raises():
    env, node = make_node(with_cells=False)
    with pytest.raises(RuntimeError, match="Cell socket"):
        MapKernel(node, 0, Backend.CELL_SPE_DIRECT, "aes", CAL)


# --------------------------------------------------------------------------- #
# GPU runtime PCIe-bound regime                                                 #
# --------------------------------------------------------------------------- #
def test_gpu_pcie_bound_when_kernel_is_fast():
    """With an absurdly fast AES kernel, staging dominates and the
    steady-state bandwidth pins to the PCIe rate."""
    env = Environment()
    fast = GPUSpec(name="fast", pcie_bw=2.0 * GB, aes_bw=100.0 * GB,
                   pi_rate=1e9, kernel_launch_s=0.0, context_init_s=0.0)
    rt = GPUOffloadRuntime(GPUDevice(env, 0, fast))
    assert rt.steady_state_bw() == pytest.approx(2.0 * GB)


def test_gpu_zero_bytes():
    env = Environment()
    rt = GPUOffloadRuntime(GPUDevice(env, 0))

    def run():
        result = yield from rt.offload_bytes(0)
        return result

    result = env.run(env.process(run()))
    assert result.bytes_processed == 0


# --------------------------------------------------------------------------- #
# Output-size table                                                             #
# --------------------------------------------------------------------------- #
def test_map_output_bytes_by_workload():
    aes = JobConf(name="a", workload="aes", input_path="/x")
    assert _map_output_bytes(aes, 100) == 100
    empty = JobConf(name="e", workload="empty", input_path="/x")
    assert _map_output_bytes(empty, 100) == 0
    pi = JobConf(name="p", workload="pi", samples=1, num_map_tasks=1)
    assert _map_output_bytes(pi, 0) == 128


# --------------------------------------------------------------------------- #
# Placement determinism                                                         #
# --------------------------------------------------------------------------- #
def test_placement_deterministic_per_seed():
    def homes(seed):
        sim = SimulatedCluster(4, seed=seed)
        sim.ingest("/in", 8 * 64 * MB)
        return [b.locations[0] for b in sim.namenode.file_meta("/in").blocks]

    assert homes(7) == homes(7)


def test_closing_the_environment_mid_read_ends_the_reader_loop_quietly():
    """The record-reader loop forwards read failures to its consumer,
    but the environment closing (GeneratorExit) is not a read failure:
    it must end the loop, not be parked in the queue."""
    from repro.hadoop.tasks import _reader_loop
    from repro.sim.resources import Store

    env = Environment()

    class SlowReader:
        def record_ranges(self):
            return [(0, 1), (1, 1)]

        def read_record(self, offset, length, index):
            yield env.timeout(1.0)
            return index

    queue = Store(env, capacity=1)
    reader = env.process(_reader_loop(SlowReader(), queue))
    env.run(until=0.5)
    env.close()
    assert len(queue) == 0
    assert reader.is_alive  # closed, never resumed: no termination event
