"""Serve a model over HTTP and query it like a client would.

End-to-end demonstration of the serving stack in one process:

1. train a small RTL-Timer (or reuse one already in the registry),
2. register it in the model registry (content-addressed + versioned),
3. load it back and bind the JSON-over-HTTP server on a free port,
4. act as a client: ``POST /predict`` and ``POST /whatif`` for a user
   Verilog module, then read ``/health`` and ``/metrics``.

Run with:  PYTHONPATH=src python examples/serve_client.py
"""

import json
import urllib.request

from repro.core import (
    BitwiseConfig,
    OverallConfig,
    RTLTimer,
    RTLTimerConfig,
    SignalwiseConfig,
    build_dataset,
)
from repro.hdl.generate import BENCHMARK_SPECS
from repro.serve import ModelRegistry, RegistryError, ServeConfig, TimingService, start_server

MODEL_NAME = "serve-client-demo"

USER_VERILOG = """
module mixer (clk, sel, in_a, in_b, out_q);
  input clk;
  input sel;
  input [11:0] in_a;
  input [11:0] in_b;
  output [11:0] out_q;

  reg [11:0] acc;
  reg [11:0] hold;
  wire [11:0] blended;

  assign blended = sel ? (in_a + hold) : (in_a ^ in_b);
  assign out_q = acc;

  always @(posedge clk) begin
    hold <= in_b;
    acc <= blended + (acc >> 1);
  end
endmodule
"""


def get_model(registry: ModelRegistry) -> RTLTimer:
    """Load the demo model, training + registering it only on first use."""
    try:
        timer = registry.load(MODEL_NAME)
        print(f"loaded model {MODEL_NAME!r} from the registry (no re-training)")
        return timer
    except RegistryError:
        pass
    print("training the demo model (first run only)...")
    records = build_dataset(BENCHMARK_SPECS[:6])
    config = RTLTimerConfig(
        bitwise=BitwiseConfig(n_estimators=30, max_depth=5, max_train_endpoints_per_design=100),
        signalwise=SignalwiseConfig(n_estimators=30, ranker_estimators=40),
        overall=OverallConfig(n_estimators=20),
    )
    timer = RTLTimer(config).fit(records)
    manifest = registry.save(timer, MODEL_NAME)
    print(f"registered bundle {manifest['bundle_id'][:12]} as {MODEL_NAME!r}")
    return timer


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}") as response:
        return json.loads(response.read())


def main() -> None:
    registry = ModelRegistry()
    timer = get_model(registry)

    service = TimingService(
        timer,
        ServeConfig(max_batch=8),
        manifest=registry.manifest(MODEL_NAME),
    )
    server = start_server(service, port=0)  # OS-assigned free port
    host, port = server.server_address
    base = f"http://{host}:{port}"
    print(f"serving on {base}\n")

    try:
        health = get(base, "/health")
        print(f"/health: status={health['status']} model={health['model'].get('name')}")

        prediction = post(base, "/predict", {"source": USER_VERILOG, "name": "mixer"})
        print(f"\n/predict for '{prediction['design']}':")
        print(f"  WNS = {prediction['overall']['wns']:.1f} ps"
              f"   TNS = {prediction['overall']['tns']:.1f} ps")
        for signal in prediction["ranked_signals"]:
            slack = prediction["signal_slack"][signal]
            group = prediction["rank_group"][signal]
            print(f"  {signal:8s} slack {slack:8.1f} ps   rank group g{group}")
        print(f"  served in {prediction['serve']['latency_seconds'] * 1000:.1f} ms "
              f"(batch of {prediction['serve']['batch_size']})")

        whatif = post(base, "/whatif", {"source": USER_VERILOG, "name": "mixer", "k": 4})
        print("\n/whatif candidates (incremental projections, no re-synthesis):")
        for candidate in whatif["candidates"]:
            print(f"  #{candidate['index']}: wns {candidate['wns']:8.1f}"
                  f"  tns {candidate['tns']:9.1f}  patches {candidate['n_patches']}")

        metrics = get(base, "/metrics")["serving"]
        print(f"\n/metrics: {metrics['requests']} request(s) in {metrics['batches']} "
              f"model pass(es), p50 {metrics.get('predict_p50', 0.0) * 1000:.1f} ms")
    finally:
        server.shutdown()
        service.close()


if __name__ == "__main__":
    main()
