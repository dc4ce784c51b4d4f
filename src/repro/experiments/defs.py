"""Definitions of every reproduction experiment.

Each runner regenerates one table/figure of the paper (see
``EXPERIMENTS.md``) at the fidelity the benchmark assertions check.
The tables built here are exactly what ``repro run`` prints and what
the ``benchmarks/bench_*`` modules display before asserting on the
returned ``raw`` payload, so CLI and pytest share one code path.

Seeding: every RNG stream derives from ``ctx.seed`` (default 0) by a
fixed offset, so the default run reproduces the published numbers
bit-for-bit and ``--seed`` shifts every stream coherently.
"""

from __future__ import annotations

from repro.experiments.registry import RunContext, register

__all__: list[str] = []


# ----------------------------------------------------------------------
# F1 — Fig.1: generic stream + MPEG-2 decoder buffers
# ----------------------------------------------------------------------
@register("f1", "Fig.1 stream model & MPEG-2 decoder buffers")
def _f1(ctx: RunContext):
    from repro.streams import (BernoulliModel, Channel,
                               GilbertElliottModel, MpegSource, Sink,
                               StreamPipeline, simulate_mpeg2_decoder)

    def run_pipeline(error_model, max_retries, label, horizon=30.0):
        pipe = StreamPipeline(
            source=MpegSource(fps=25.0, i_frame_bits=300_000.0,
                              seed=ctx.seed + 1),
            channel=Channel(
                bandwidth=5e6, error_model=error_model,
                max_retries=max_retries, tx_energy_per_bit=1e-9,
                rx_energy_per_bit=0.5e-9, seed=ctx.seed + 2,
            ),
            sink=Sink(display_rate_hz=25.0, startup_delay=0.3),
            rx_buffer_size=64,
        )
        return label, pipe.run(horizon=horizon)

    scenarios = [
        run_pipeline(None, 0, "lossless wire"),
        run_pipeline(BernoulliModel(p_loss=0.05), 0, "bernoulli 5%"),
        run_pipeline(GilbertElliottModel(), 0, "gilbert-elliott"),
        run_pipeline(GilbertElliottModel(), 3, "gilbert-elliott + ARQ"),
    ]
    stream_table = ctx.table(
        ["channel", "loss", "underrun", "latency_ms", "retx",
         "energy_mJ"],
        title="F1a: generic multimedia stream (Fig.1a)",
    )
    for label, report in scenarios:
        stream_table.add_row([
            label, report.loss_rate, report.underrun_rate,
            report.mean_latency * 1e3, report.channel.retransmissions,
            report.channel.energy * 1e3,
        ])

    decoder_rows = []
    for freq in (400e6, 150e6, 100e6, 60e6):
        report = simulate_mpeg2_decoder(
            cpu_frequency=freq, horizon=12.0, warmup=2.0,
            seed=ctx.seed,
        )
        decoder_rows.append((freq, report))
    decoder_table = ctx.table(
        ["cpu_mhz", "fps", "b3_occupancy", "b4_occupancy", "util",
         "realtime"],
        title="F1b: MPEG-2 decoder producer-consumer study (Fig.1b)",
    )
    for freq, report in decoder_rows:
        decoder_table.add_row([
            freq / 1e6, report.throughput_fps, report.b3_mean_occupancy,
            report.b4_mean_occupancy, report.cpu_utilization,
            report.realtime,
        ])

    by_label = dict(scenarios)
    ctx.record("bernoulli_loss_rate", by_label["bernoulli 5%"].loss_rate)
    ctx.record("arq_loss_rate",
               by_label["gilbert-elliott + ARQ"].loss_rate)
    ctx.record("decoder_fast_fps", decoder_rows[0][1].throughput_fps)
    ctx.record("decoder_slow_fps", decoder_rows[-1][1].throughput_fps)
    return {"stream": scenarios, "decoder": decoder_rows}


# ----------------------------------------------------------------------
# F2 — Fig.2: extensible-processor design flow
# ----------------------------------------------------------------------
@register("f2", "Fig.2 extensible-processor design flow")
def _f2(ctx: RunContext):
    from repro.asip import (STANDARD_BLOCKS, ExtensibleProcessor,
                            ExtensibleProcessorFlow, IsaRestrictions,
                            IssProfiler, ProcessorParameters,
                            select_blocks, select_extensions_optimal,
                            voice_recognition_workload)
    from repro.utils import format_ratio

    base = ExtensibleProcessor(
        restrictions=IsaRestrictions(max_instructions=9,
                                     gate_budget=200_000.0)
    )
    workload = voice_recognition_workload()
    profile = IssProfiler(base).run(workload)
    report = ExtensibleProcessorFlow(
        base, workload, target_speedup=5.0
    ).run()

    hotspots = ctx.table(
        ["kernel", "cycles", "fraction"],
        title="F2 step 1: ISS profiling (hotspots, 90% coverage)",
    )
    for entry in profile.hotspots(coverage=0.9):
        hotspots.add_row([entry.kernel, entry.cycles, entry.fraction])

    loop = ctx.table(
        ["iteration", "instr_allowed", "selected", "speedup", "gates",
         "meets_speedup", "meets_gates"],
        title="F2: design-flow iterations (Fig.2 loop)",
    )
    for it in report.iterations:
        loop.add_row([
            it.index, it.max_instructions_tried, it.n_selected,
            format_ratio(it.speedup), it.gate_count,
            it.meets_speedup, it.meets_gates,
        ])

    # §3.1's three customization levels, separately and combined.
    restrictions = IsaRestrictions(max_instructions=6,
                                   gate_budget=250_000.0)
    small_base = ExtensibleProcessor(restrictions=restrictions)
    small_profile = IssProfiler(small_base).run(workload)
    selection = select_extensions_optimal(
        small_profile, workload.candidates(), restrictions,
        extension_budget=80_000.0,
    )
    blocks = select_blocks(small_profile, STANDARD_BLOCKS,
                           gate_budget=40_000.0)
    params = ProcessorParameters(icache_kb=32.0, dcache_kb=32.0)
    variants = {
        "base core": small_base,
        "a) instruction extension": small_base.with_customization(
            extensions=selection.selected,
        ),
        "b) predefined blocks": small_base.with_customization(
            blocks=blocks),
        "c) parameterization": small_base.with_customization(
            parameters=params,
        ),
        "a+b+c combined": small_base.with_customization(
            extensions=selection.selected, blocks=blocks,
            parameters=params,
        ),
    }
    level_rows = []
    for label, processor in variants.items():
        speedup = IssProfiler(processor).speedup_over(workload,
                                                      small_base)
        level_rows.append((label, speedup, processor.gate_count()))
    levels = ctx.table(
        ["customization", "speedup", "gates"],
        title="F2 ablation: the three §3.1 customization levels",
    )
    for label, speedup, gates in level_rows:
        levels.add_row([label, format_ratio(speedup), gates])

    ctx.record("final_speedup", report.speedup)
    ctx.record("final_gates", report.gate_count)
    ctx.record("n_iterations", len(report.iterations))
    return {"profile": profile, "report": report, "levels": level_rows}


# ----------------------------------------------------------------------
# E1 — §3.1: ASIP voice recognition operating point
# ----------------------------------------------------------------------
@register("e1", "ASIP voice recognition: 5-10x, <10 instr, <200k gates")
def _e1(ctx: RunContext):
    from repro.asip import (ExtensibleProcessor, IsaRestrictions,
                            IssProfiler, mpeg2_encoder_workload,
                            select_extensions_optimal,
                            voice_recognition_workload)
    from repro.utils import format_ratio

    def sweep(workload, max_instructions=9, gate_budget=200_000.0):
        base = ExtensibleProcessor(
            restrictions=IsaRestrictions(
                max_instructions=max_instructions,
                gate_budget=gate_budget,
            )
        )
        profile = IssProfiler(base).run(workload)
        rows = []
        for allowed in range(1, max_instructions + 1):
            restrictions = IsaRestrictions(
                max_instructions=allowed, gate_budget=gate_budget,
            )
            selection = select_extensions_optimal(
                profile, workload.candidates(), restrictions,
                extension_budget=gate_budget - base.base_gates,
            )
            rows.append((allowed, selection,
                         base.base_gates + selection.gates_used))
        return rows

    voice_rows = sweep(voice_recognition_workload())
    voice = ctx.table(
        ["n_instructions", "speedup", "total_gates", "in_5x_10x_band"],
        title="E1: voice recognition on an extensible processor (§3.1)",
    )
    for allowed, selection, gates in voice_rows:
        voice.add_row([
            allowed, format_ratio(selection.speedup), gates,
            5.0 <= selection.speedup <= 10.0,
        ])

    mpeg_rows = sweep(mpeg2_encoder_workload(), 5)
    mpeg = ctx.table(
        ["n_instructions", "speedup", "total_gates"],
        title="E1 contrast: MPEG-2 encoder (one dominant kernel)",
    )
    for allowed, selection, gates in mpeg_rows:
        mpeg.add_row([allowed, format_ratio(selection.speedup), gates])

    final_allowed, final_selection, final_gates = voice_rows[-1]
    ctx.record("final_speedup", final_selection.speedup)
    ctx.record("final_gates", final_gates)
    ctx.record("n_instructions", final_allowed)
    return {"voice": voice_rows, "mpeg2": mpeg_rows}


# ----------------------------------------------------------------------
# E2 — §3.2: self-similar vs Markovian traffic
# ----------------------------------------------------------------------
@register("e2", "self-similar vs Markovian traffic & queueing")
def _e2(ctx: RunContext):
    from repro.traffic import (aggregate_onoff_trace, autocorrelation,
                               fgn_trace, mmpp2_trace,
                               periodogram_hurst, poisson_trace,
                               rs_hurst, simulate_trace_queue,
                               variance_time_hurst)

    n = 2**15
    mean_rate = 10.0
    service = 12.0
    traces = {
        "fgn H=0.85": fgn_trace(n, 0.85, mean_rate, peakedness=0.4,
                                seed=ctx.seed + 1),
        "fgn H=0.70": fgn_trace(n, 0.70, mean_rate, peakedness=0.4,
                                seed=ctx.seed + 2),
        "onoff a=1.4": aggregate_onoff_trace(
            30, n, alpha=1.4, peak_rate=mean_rate / 7.5,
            seed=ctx.seed + 3,
        ),
        "poisson": poisson_trace(n, mean_rate, seed=ctx.seed + 4),
        "mmpp2": mmpp2_trace(n, mean_rate, burstiness=6.0,
                             seed=ctx.seed + 5),
    }

    hurst_rows = [
        (name, rs_hurst(trace), variance_time_hurst(trace),
         periodogram_hurst(trace))
        for name, trace in traces.items()
    ]
    hurst = ctx.table(
        ["trace", "rs", "variance_time", "periodogram"],
        title="E2a: Hurst estimates (expected: fGn=H, onoff~0.8, "
              "poisson/mmpp~0.5)",
    )
    for row in hurst_rows:
        hurst.add_row(list(row))

    lags = [1, 5, 10, 50, 100]
    acfs = {}
    for name, trace in traces.items():
        rho = autocorrelation(trace, lags[-1])
        acfs[name] = [rho[lag] for lag in lags]
    acf = ctx.table(
        ["trace"] + [f"lag{lag}" for lag in lags],
        title="E2b: autocorrelation decay (power-law vs. exponential)",
    )
    for name, values in acfs.items():
        acf.add_row([name] + values)

    levels = [1.0, 5.0, 10.0, 20.0, 50.0]
    queue_rows = {}
    for name, trace in traces.items():
        normalized = trace * (mean_rate / trace.mean())
        result = simulate_trace_queue(normalized, service)
        queue_rows[name] = (result.mean_occupancy,
                            result.survival(levels))
    queues = ctx.table(
        ["trace", "mean_Q"] + [f"P[Q>{int(x)}]" for x in levels],
        title="E2c: queue tails at equal load (rho=0.83)",
    )
    for name, (mean_q, tail) in queue_rows.items():
        queues.add_row([name, mean_q] + list(tail))

    ctx.record("fgn_tail_p20", queue_rows["fgn H=0.85"][1][3])
    ctx.record("poisson_tail_p20", queue_rows["poisson"][1][3])
    return {"hurst": hurst_rows, "acf": (acfs, lags),
            "queue": (queue_rows, levels)}


def _apcg_scenarios():
    """Design points behind E3/E4: the two NoC benchmark task graphs
    as ``repro.scenario/v1`` documents.

    Returned to the :func:`repro.experiments.preflight` hook so
    ``run("e3")``/``run("e4")`` statically verify the *documents*
    before simulating — the same artifact ``repro scenario export``
    writes and ``repro check`` reads, with diagnostics anchored to
    JSON paths rather than live object reprs.
    """
    from repro.noc import mms_apcg, video_surveillance_apcg
    from repro.scenario import Scenario

    return [
        Scenario(name=tg.name, task_graph=tg).to_document()
        for tg in (video_surveillance_apcg(), mms_apcg())
    ]


# ----------------------------------------------------------------------
# E3 — §3.3: energy-aware NoC mapping
# ----------------------------------------------------------------------
@register("e3", "energy-aware NoC mapping (>50% saving)",
          scenario=_apcg_scenarios)
def _e3(ctx: RunContext):
    from repro.noc import (Mesh2D, NocEnergyModel, adhoc_mapping,
                           branch_and_bound_mapping, greedy_mapping,
                           mms_apcg, random_multimedia_apcg,
                           random_noc_mapping,
                           simulated_annealing_mapping,
                           video_surveillance_apcg)

    model = NocEnergyModel()
    problems = [
        (video_surveillance_apcg(), Mesh2D(4, 3)),
        (mms_apcg(), Mesh2D(4, 4)),
    ]
    if ctx.scenario is not None and ctx.scenario.task_graph is not None:
        # --scenario override: map the supplied task graph instead of
        # the built-in benchmarks (mesh sized to fit it).
        problems = [(ctx.scenario.task_graph, Mesh2D(4, 4))]
    results = {}
    for tg, mesh in problems:
        random_cost = sum(
            random_noc_mapping(tg, mesh, seed=ctx.seed + s)
            .communication_energy(tg, model)
            for s in range(5)
        ) / 5
        results[tg.name] = {
            "adhoc": adhoc_mapping(tg, mesh).communication_energy(
                tg, model),
            "random(avg5)": random_cost,
            "greedy": greedy_mapping(tg, mesh).communication_energy(
                tg, model),
            "sa": simulated_annealing_mapping(
                tg, mesh, seed=ctx.seed + 1, n_iterations=20_000
            ).communication_energy(tg, model),
        }
    mapping = ctx.table(
        ["application", "mapping", "comm_energy_uJ", "saving_vs_random",
         "saving_vs_adhoc"],
        title="E3: NoC mapping energy per iteration (§3.3, [20])",
    )
    for app, entry in results.items():
        for scheme, energy in entry.items():
            mapping.add_row([
                app, scheme, energy * 1e6,
                1 - energy / entry["random(avg5)"],
                1 - energy / entry["adhoc"],
            ])

    optimality_rows = []
    for s in range(3):
        tg = random_multimedia_apcg(7, seed=ctx.seed + s)
        mesh = Mesh2D(3, 3)
        optimum = branch_and_bound_mapping(tg, mesh)
        sa = simulated_annealing_mapping(tg, mesh, seed=ctx.seed,
                                         n_iterations=15_000)
        optimality_rows.append((
            s, optimum.communication_energy(tg, model),
            sa.communication_energy(tg, model),
        ))
    optimality = ctx.table(
        ["instance", "bnb_optimum_uJ", "sa_uJ", "gap"],
        title="E3 ablation: SA quality vs. exact branch-and-bound",
    )
    for s, opt, sa_cost in optimality_rows:
        optimality.add_row([s, opt * 1e6, sa_cost * 1e6,
                            sa_cost / opt - 1])

    headline = results[problems[-1][0].name]
    ctx.record("mms_saving_vs_random",
               1 - headline["sa"] / headline["random(avg5)"])
    ctx.record("mms_saving_vs_adhoc",
               1 - headline["sa"] / headline["adhoc"])
    return {"mapping": results, "optimality": optimality_rows}


# ----------------------------------------------------------------------
# E4 — §3.3: EDF vs energy-aware scheduling
# ----------------------------------------------------------------------
@register("e4", "EDF vs energy-aware scheduling (>40% saving)",
          scenario=_apcg_scenarios)
def _e4(ctx: RunContext):
    from repro.core.application import TaskGraph
    from repro.noc import (Mesh2D, edf_schedule, energy_aware_schedule,
                           greedy_mapping, mms_apcg,
                           video_surveillance_apcg)

    problems = [(video_surveillance_apcg(), Mesh2D(4, 3)),
                (mms_apcg(), Mesh2D(4, 4))]
    if (ctx.scenario is not None
            and ctx.scenario.task_graph is not None
            and ctx.scenario.task_graph.period):
        # --scenario override: schedule the supplied (periodic) task
        # graph instead of the built-in benchmarks.
        problems = [(ctx.scenario.task_graph, Mesh2D(4, 4))]

    headline_rows = []
    for tg, mesh in problems:
        mapping = greedy_mapping(tg, mesh)
        edf = edf_schedule(tg, mapping)
        eas = energy_aware_schedule(tg, mapping)
        headline_rows.append((tg.name, edf, eas))
    headline = ctx.table(
        ["application", "scheduler", "makespan_ms", "energy_mJ",
         "feasible", "saving"],
        title="E4: EDF vs energy-aware scheduling (§3.3, [23])",
    )
    for name, edf, eas in headline_rows:
        headline.add_row([name, "EDF@fmax", edf.makespan * 1e3,
                          edf.total_energy * 1e3, edf.feasible, 0.0])
        headline.add_row([
            name, "energy-aware", eas.makespan * 1e3,
            eas.total_energy * 1e3, eas.feasible,
            1 - eas.total_energy / edf.total_energy,
        ])

    def copy_with_period(tg, period):
        clone = TaskGraph(tg.name, period=period)
        for task in tg.tasks:
            clone.add_task(type(task)(task.name, task.cycles,
                                      task.deadline))
        for dep in tg.dependencies:
            clone.add_dependency(type(dep)(dep.src, dep.dst, dep.bits))
        return clone

    base, mesh = problems[0]
    tightness_rows = []
    for factor in (0.6, 0.8, 1.0, 1.5, 2.0):
        tg = copy_with_period(base, base.period * factor)
        mapping = greedy_mapping(tg, mesh)
        edf = edf_schedule(tg, mapping)
        eas = energy_aware_schedule(tg, mapping)
        saving = (1 - eas.total_energy / edf.total_energy
                  if edf.feasible else float("nan"))
        tightness_rows.append((factor, edf.feasible, eas.feasible,
                               saving))
    tightness = ctx.table(
        ["period_factor", "edf_feasible", "eas_feasible", "saving"],
        title="E4 ablation: savings vs. deadline tightness",
    )
    for row in tightness_rows:
        tightness.add_row(list(row))

    name, edf, eas = headline_rows[0]
    ctx.record("vs_saving", 1 - eas.total_energy / edf.total_energy)
    return {"headline": headline_rows, "tightness": tightness_rows}


# ----------------------------------------------------------------------
# E5 — §3.3: NoC packet-size trade-off
# ----------------------------------------------------------------------
@register("e5", "NoC packet-size trade-off")
def _e5(ctx: RunContext):
    from repro.noc import Mesh2D, default_flows, packet_size_sweep

    payloads = [256.0, 1_024.0, 4_096.0, 16_384.0, 65_536.0]
    mesh = Mesh2D(4, 4)
    flows = default_flows(mesh, n_flows=8, message_bits=64_000.0,
                          rate_hz=1_000.0, seed=ctx.seed)
    results = packet_size_sweep(payloads, mesh=mesh, flows=flows,
                                horizon=0.03)
    sweep = ctx.table(
        ["payload_bits", "msg_latency_us", "energy_per_bit_pJ",
         "header_overhead", "goodput_Mbps"],
        title="E5: packet-size trade-off on a 4x4 mesh (§3.3)",
    )
    for r in results:
        sweep.add_row([
            int(r.payload_bits), r.mean_message_latency * 1e6,
            r.energy_per_payload_bit * 1e12, r.header_overhead,
            r.goodput / 1e6,
        ])
    best = min(results, key=lambda r: r.mean_message_latency)
    ctx.record("best_payload_bits", best.payload_bits)
    ctx.record("best_latency_us", best.mean_message_latency * 1e6)
    return {"sweep": results, "payloads": payloads}


# ----------------------------------------------------------------------
# E6 — §4: dynamic transceiver adaptation
# ----------------------------------------------------------------------
@register("e6", "dynamic transceiver adaptation (~12%)")
def _e6(ctx: RunContext):
    from repro.wireless import FiniteStateChannel, evaluate_adaptation

    result = evaluate_adaptation()
    per_state = ctx.table(
        ["channel_state", "static_config", "dynamic_config",
         "static_mJ", "dynamic_mJ"],
        title="E6: per-state transceiver configuration (§4, [26])",
    )
    channel = FiniteStateChannel.indoor_default()
    for state in channel.states:
        per_state.add_row([
            state.name,
            str(result.static_config),
            str(result.dynamic_configs[state.name]),
            result.per_state_static[state.name] * 1e3,
            result.per_state_dynamic[state.name] * 1e3,
        ])

    distance_rows = []
    for distance in (5.0, 10.0, 20.0, 40.0):
        swept = evaluate_adaptation(
            channel=FiniteStateChannel.indoor_default(distance=distance)
        )
        distance_rows.append((distance, swept.energy_reduction))
    distances = ctx.table(
        ["distance_m", "energy_reduction"],
        title="E6 ablation: adaptation gain vs. link distance",
    )
    for row in distance_rows:
        distances.add_row(list(row))

    ctx.record("energy_reduction", result.energy_reduction)
    ctx.record("static_energy_mj", result.static_energy * 1e3)
    ctx.record("dynamic_energy_mj", result.dynamic_energy * 1e3)
    return {"adaptation": result, "distance": distance_rows}


# ----------------------------------------------------------------------
# E7 — §4: JSCC image transmission
# ----------------------------------------------------------------------
@register("e7", "JSCC image transmission (~60%)")
def _e7(ctx: RunContext):
    from repro.wireless import (FiniteStateChannel, ImageCoderModel,
                                TransceiverParams,
                                evaluate_image_transmission,
                                optimize_for_state)

    result = evaluate_image_transmission()
    per_state = ctx.table(
        ["channel_state", "baseline_config", "adaptive_config",
         "baseline_mJ", "adaptive_mJ"],
        title="E7: image transmission energy per state (§4, [27])",
    )
    channel = FiniteStateChannel.indoor_default(distance=20.0)
    for state in channel.states:
        per_state.add_row([
            state.name,
            str(result.baseline_config),
            str(result.adaptive_configs[state.name]),
            result.per_state_baseline[state.name] * 1e3,
            result.per_state_adaptive[state.name] * 1e3,
        ])

    params = TransceiverParams()
    coder = ImageCoderModel()
    state = channel.states[1]  # "light" shadowing
    psnr_rows = []
    for psnr in (28.0, 32.0, 36.0, 40.0):
        config, energy = optimize_for_state(
            state, channel, params, coder, psnr_target=psnr
        )
        psnr_rows.append((psnr, config.bpp, config.target_ber, energy))
    quality = ctx.table(
        ["psnr_target_db", "bpp", "target_ber", "energy_mJ"],
        title="E7 ablation: quality-energy trade-off (light shadowing)",
    )
    for psnr, bpp, ber, energy in psnr_rows:
        quality.add_row([psnr, bpp, ber, energy * 1e3])

    ctx.record("energy_saving", result.energy_saving)
    return {"transmission": result, "psnr": psnr_rows}


# ----------------------------------------------------------------------
# E8 — §4.1: feedback FGS streaming
# ----------------------------------------------------------------------
@register("e8", "feedback FGS streaming (~15% client RX energy)")
def _e8(ctx: RunContext):
    from repro.streaming import (DvfsVideoClient, FeedbackServer,
                                 FgsSource, FullRateServer,
                                 compare_streaming_policies,
                                 run_session)

    comparison = compare_streaming_policies(n_frames=2_000,
                                            seed=ctx.seed)
    policies = ctx.table(
        ["policy", "rx_energy_J", "compute_energy_J", "mean_psnr_db",
         "norm_load", "waste"],
        title="E8: FGS streaming policies (§4.1, [28])",
    )
    for report in (comparison.full_rate, comparison.feedback):
        policies.add_row([
            report.policy, report.rx_energy, report.compute_energy,
            report.mean_psnr, report.mean_normalized_load,
            report.waste_fraction,
        ])

    dvfs_results = {}
    for label, enabled in [("dvfs", True), ("fixed-fmax", False)]:
        client = DvfsVideoClient(dvfs_enabled=enabled)
        report = run_session(
            FeedbackServer(), n_frames=1_500, seed=ctx.seed + 2,
            client=client, source=FgsSource(seed=ctx.seed + 2),
        )
        dvfs_results[label] = report
    dvfs = ctx.table(
        ["client", "compute_energy_J", "rx_energy_J", "mean_psnr_db"],
        title="E8 ablation: client DVFS on vs off (feedback server)",
    )
    for label, report in dvfs_results.items():
        dvfs.add_row([label, report.compute_energy, report.rx_energy,
                      report.mean_psnr])

    load_rows = []
    for margin in (0.4, 0.6, 0.8, 1.0):
        client = DvfsVideoClient()
        report = run_session(
            FeedbackServer(safety_margin=margin), n_frames=1_200,
            seed=ctx.seed + 1, client=client,
            source=FgsSource(seed=ctx.seed + 1),
        )
        load_rows.append((margin, report.mean_normalized_load,
                          report.mean_psnr, report.waste_fraction))
    client = DvfsVideoClient()
    full = run_session(FullRateServer(), n_frames=1_200,
                       seed=ctx.seed + 1, client=client,
                       source=FgsSource(seed=ctx.seed + 1))
    load_rows.append((float("nan"), full.mean_normalized_load,
                      full.mean_psnr, full.waste_fraction))
    load = ctx.table(
        ["server_margin", "norm_load", "mean_psnr_db", "waste"],
        title="E8 ablation: the normalized-decoding-load landscape "
              "(unity = optimum)",
    )
    for row in load_rows:
        load.add_row(list(row))

    ctx.record("rx_energy_reduction", comparison.rx_energy_reduction)
    ctx.record("psnr_cost_db", comparison.psnr_cost)
    ctx.record("feedback_norm_load",
               comparison.feedback.mean_normalized_load)
    return {"comparison": comparison, "dvfs": dvfs_results,
            "load": load_rows}


# ----------------------------------------------------------------------
# E9 — §4.2: power-aware MANET routing
# ----------------------------------------------------------------------
@register("e9", "power-aware MANET routing (>20% lifetime)")
def _e9(ctx: RunContext):
    import numpy as np

    from repro.manet import PROTOCOLS, compare_protocols

    seeds = tuple(ctx.seed + s for s in range(4))
    all_results = {
        seed: compare_protocols(
            PROTOCOLS, n_nodes=50, seed=seed, n_sessions=100_000,
            bits_per_session=80_000.0, death_fraction=0.2,
        )
        for seed in seeds
    }
    names = [cls().name for cls in PROTOCOLS]
    means = {}
    for name in names:
        means[name] = (
            float(np.mean([all_results[s][name].lifetime_sessions
                           for s in seeds])),
            float(np.mean([all_results[s][name].first_death_session or 0
                           for s in seeds])),
            float(np.mean([all_results[s][name].delivered
                           for s in seeds])),
            float(np.mean([all_results[s][name].total_energy
                           for s in seeds])),
        )
    base = means["min-power"][0]
    lifetimes = ctx.table(
        ["protocol", "lifetime_sessions", "first_death", "delivered",
         "energy_J", "lifetime_vs_minpower"],
        title="E9: MANET network lifetime, mean over "
              f"{len(seeds)} topologies (§4.2)",
    )
    for name in names:
        lifetime, first, delivered, energy = means[name]
        lifetimes.add_row([name, lifetime, first, delivered, energy,
                           lifetime / base - 1])

    ctx.record("battery_cost_gain", means["battery-cost"][0] / base - 1)
    ctx.record("min_power_lifetime", base)
    return {"results": all_results, "means": means, "seeds": seeds}


# ----------------------------------------------------------------------
# E10 — §2.2: simulation vs analysis
# ----------------------------------------------------------------------
@register("e10", "simulation vs analytical steady state")
def _e10(ctx: RunContext):
    from repro.analysis import AnalyticalStreamModel, compare_mm1k
    from repro.streams import (BernoulliModel, CBRSource, Channel,
                               Sink, StreamPipeline)

    rows, sim_seconds, ana_seconds = compare_mm1k(
        8.0, 10.0, 5, horizon=3_000.0, warmup=200.0,
        seed=ctx.seed + 1,
    )
    mm1k = ctx.table(
        ["metric", "simulated", "analytical", "rel_error"],
        title="E10a: M/M/1/5 — DES vs. closed form (§2.2)",
    )
    for row in rows:
        mm1k.add_row([row.metric, row.simulated, row.analytical,
                      row.relative_error])

    source_rate, loss, service_rate, capacity = 40.0, 0.1, 50.0, 8
    model = AnalyticalStreamModel(
        source_rate=source_rate, channel_loss=loss,
        service_rate=service_rate, rx_capacity=capacity,
    )
    analytical = model.solve()
    pipe = StreamPipeline(
        source=CBRSource(rate_hz=source_rate, packet_bits=8_000.0,
                         seed=ctx.seed + 3),
        channel=Channel(bandwidth=1e9,
                        error_model=BernoulliModel(p_loss=loss),
                        seed=ctx.seed + 4),
        sink=Sink(display_rate_hz=service_rate),
        rx_buffer_size=capacity,
    )
    simulated = pipe.run(horizon=500.0)
    stream = ctx.table(
        ["metric", "simulated", "analytical"],
        title="E10b: Fig.1(a) stream — DES vs. CTMC model",
    )
    stream.add_row(["throughput", simulated.throughput,
                    analytical.throughput])
    stream.add_row(["loss_rate", simulated.loss_rate,
                    analytical.loss_rate])
    stream.add_row(["rx_occupancy", simulated.rx_buffer_mean,
                    analytical.mean_rx_occupancy])

    speedup = sim_seconds / max(ana_seconds, 1e-9)
    ctx.record("analysis_speedup", speedup)
    ctx.record("max_rel_error", max(r.relative_error for r in rows))
    return {"mm1k": (rows, sim_seconds, ana_seconds),
            "stream": (analytical, simulated)}


# ----------------------------------------------------------------------
# E11 — §2: worst-case vs average provisioning
# ----------------------------------------------------------------------
@register("e11", "worst-case vs average-case provisioning")
def _e11(ctx: RunContext):
    import numpy as np

    from repro.streams import Mpeg2Workload, simulate_mpeg2_decoder

    workload = Mpeg2Workload(cycles_cv=0.8)
    fps = workload.fps

    rng = np.random.default_rng(ctx.seed + 7)
    n = 20_000
    mean_demand = 0.0
    samples = np.zeros(n)
    for mean in (workload.receive_cycles, workload.vld_cycles,
                 workload.idct_cycles, workload.mv_cycles,
                 workload.display_cycles):
        if mean == 0:
            continue
        cv = workload.cycles_cv
        sigma = np.sqrt(np.log(1 + cv * cv))
        mu = np.log(mean) - sigma**2 / 2
        samples += rng.lognormal(mu, sigma, size=n)
        mean_demand += mean
    p999 = float(np.quantile(samples, 0.999))

    rows = []
    for label, per_frame_budget in [
        ("worst-case (p99.9)", p999),
        ("2x average", 2.0 * mean_demand),
        ("1.3x average + buffers", 1.3 * mean_demand),
        ("average (underprovisioned)", 1.0 * mean_demand),
    ]:
        frequency = per_frame_budget * fps
        report = simulate_mpeg2_decoder(
            workload=workload, cpu_frequency=frequency,
            b3_capacity=8, b4_capacity=8,
            horizon=20.0, warmup=2.0, seed=ctx.seed + 3,
        )
        rows.append((label, frequency, report))
    overdesign_ratio = p999 / mean_demand

    provisioning = ctx.table(
        ["provisioning", "cpu_mhz", "fps", "loss", "util",
         "energy_per_frame_mJ"],
        title="E11: worst-case vs average-case provisioning (§2, [4])",
    )
    for label, frequency, report in rows:
        delivered = max(report.result.metrics["delivered"], 1.0)
        provisioning.add_row([
            label, frequency / 1e6, report.throughput_fps,
            report.loss_rate, report.cpu_utilization,
            report.result.metrics["energy"] / delivered * 1e3,
        ])

    ctx.record("overdesign_ratio", overdesign_ratio)
    worst = rows[0][2]
    buffered = rows[2][2]
    ctx.record("worst_case_utilization", worst.cpu_utilization)
    ctx.record("buffered_utilization", buffered.cpu_utilization)
    return {"rows": rows, "overdesign_ratio": overdesign_ratio}


# ----------------------------------------------------------------------
# E12 — §3.2: bus vs NoC scaling
# ----------------------------------------------------------------------
@register("e12", "bus vs NoC scaling")
def _e12(ctx: RunContext):
    from repro.noc import bus_vs_noc_sweep

    tiles = (4, 8, 16, 32)
    pairs = bus_vs_noc_sweep(tile_counts=tiles, rate_per_tile=20_000.0,
                             seed=ctx.seed)
    scaling = ctx.table(
        ["tiles", "offered_Gbps", "bus_saturation", "bus_latency_us",
         "noc_saturation", "noc_latency_us"],
        title="E12: shared bus vs 2D-mesh NoC under uniform traffic "
              "(§3.2)",
    )
    for bus, noc in pairs:
        scaling.add_row([
            bus.n_tiles, bus.offered_bps / 1e9,
            bus.saturation, bus.mean_latency * 1e6,
            noc.saturation, noc.mean_latency * 1e6,
        ])
    large_bus, large_noc = pairs[-1]
    ctx.record("large_bus_saturation", large_bus.saturation)
    ctx.record("large_noc_saturation", large_noc.saturation)
    return {"pairs": pairs, "tiles": tiles}


# ----------------------------------------------------------------------
# E13 — §3.3: memory organization
# ----------------------------------------------------------------------
@register("e13", "centralized vs local memories")
def _e13(ctx: RunContext):
    from repro.noc import memory_organization_study

    study = memory_organization_study(access_rate=400_000.0,
                                      seed=ctx.seed + 1)
    memories = ctx.table(
        ["organization", "mean_latency_us", "max_latency_us",
         "network_Mbit", "hot_link_Mbps"],
        title="E13: centralized vs distributed memory on a 4x4 NoC "
              "(§3.3)",
    )
    for result in study.values():
        memories.add_row([
            result.organization,
            result.mean_access_latency * 1e6,
            result.max_access_latency * 1e6,
            result.network_bits / 1e6,
            result.hot_link_bps / 1e6,
        ])
    central = study["centralized"]
    distributed = study["distributed"]
    ctx.record("latency_ratio",
               central.mean_access_latency
               / distributed.mean_access_latency)
    ctx.record("hot_link_ratio",
               central.hot_link_bps / distributed.hot_link_bps)
    return {"study": study}


# ----------------------------------------------------------------------
# E14 — §4: DPM trade-off
# ----------------------------------------------------------------------
@register("e14", "DPM QoS-energy trade-off")
def _e14(ctx: RunContext):
    from repro.core import DpmDevice, timeout_sweep
    from repro.core.dpm import generate_workload

    timeouts = (0.0, 0.005, 0.02, 0.05, 0.2)
    results = timeout_sweep(
        timeouts, workload=generate_workload(seed=ctx.seed)
    )
    device = DpmDevice()
    sweep = ctx.table(
        ["policy", "energy_J", "saving", "late_rate", "delay_ms"],
        title=f"E14: DPM energy-QoS trade-off "
              f"(break-even {device.break_even() * 1e3:.1f} ms)",
    )
    for r in results:
        sweep.add_row([
            r.policy, r.energy, r.energy_saving, r.late_rate,
            r.total_delay * 1e3,
        ])
    oracle = results[-1]
    ctx.record("oracle_saving", oracle.energy_saving)
    ctx.record("best_timeout_saving",
               max(r.energy_saving for r in results[1:-1]))
    return {"results": results, "timeouts": timeouts}


# ----------------------------------------------------------------------
# E15 — §5: ambient redundancy & user-aware energy
# ----------------------------------------------------------------------
@register("e15", "ambient redundancy & user-aware energy")
def _e15(ctx: RunContext):
    from repro.ambient import (default_home_user, redundancy_study,
                               user_aware_energy_study)

    redundancy = redundancy_study(n_slots=30_000, seed=ctx.seed + 4)
    availability = ctx.table(
        ["nodes_per_zone", "measured_availability",
         "analytical_availability"],
        title="E15a: smart-space availability vs redundancy "
              "(6 zones, failing nodes)",
    )
    for r in redundancy:
        availability.add_row([
            r.nodes_per_zone, r.measured_availability,
            r.analytical_availability,
        ])

    user = default_home_user()
    energy_results = user_aware_energy_study(n_slots=30_000,
                                             seed=ctx.seed + 5)
    pi = user.steady_state()
    energy = ctx.table(
        ["policy", "energy", "service_ratio"],
        title="E15b: always-on vs user-aware ambient operation "
              f"(user absent {pi['absent'] * 100:.0f}% of slots)",
    )
    for r in energy_results.values():
        energy.add_row([r.policy, r.energy, r.service_ratio])

    on = energy_results["always-on"]
    aware = energy_results["user-aware"]
    ctx.record("user_aware_saving", 1 - aware.energy / on.energy)
    ctx.record("triplicated_availability",
               redundancy[-1].measured_availability)
    return {"redundancy": redundancy, "energy": energy_results,
            "user": user}


# ----------------------------------------------------------------------
# E16 — §2.1: rate/ARQ co-exploration
# ----------------------------------------------------------------------
@register("e16", "source-rate / retransmission co-exploration")
def _e16(ctx: RunContext):
    from repro.streams import explore_rate_arq, pareto_points

    points = explore_rate_arq(horizon=20.0)
    front = pareto_points(points)
    front_set = {(p.i_frame_bits, p.max_retries) for p in front}
    exploration = ctx.table(
        ["i_frame_bits", "max_retries", "loss", "underrun",
         "energy_J", "quality_score", "pareto"],
        title="E16: source-rate / retransmission co-exploration "
              "(§2.1, [6])",
    )
    for p in points:
        exploration.add_row([
            int(p.i_frame_bits), p.max_retries, p.report.loss_rate,
            p.report.underrun_rate, p.energy, p.displayed_quality,
            (p.i_frame_bits, p.max_retries) in front_set,
        ])
    ctx.record("n_pareto_points", len(front))
    ctx.record("n_configs", len(points))
    return {"points": points, "front": front}


# ----------------------------------------------------------------------
# E17 — §2.2: state-space explosion
# ----------------------------------------------------------------------
@register("e17", "exact-analysis state-space explosion")
def _e17(ctx: RunContext):
    from repro.analysis import state_space_study

    rows = state_space_study(max_stages=5, capacity=3, seed=ctx.seed)
    explosion = ctx.table(
        ["pipeline_stages", "exact_states", "exact_seconds",
         "sim_seconds", "exact_throughput", "sim_throughput"],
        title="E17: exact CTMC vs simulation as the model grows "
              "(§2.2)",
    )
    for row in rows:
        explosion.add_row([
            row["stages"], row["states"], row["exact_seconds"],
            row["sim_seconds"], row["exact_throughput"],
            row["sim_throughput"],
        ])
    ctx.record("max_states", rows[-1]["states"])
    ctx.record("exact_seconds_final", rows[-1]["exact_seconds"])
    ctx.record("sim_seconds_final", rows[-1]["sim_seconds"])
    return {"rows": rows}


# ----------------------------------------------------------------------
# R1 — §6: resilience / graceful degradation
# ----------------------------------------------------------------------
@register("r1", "graceful degradation under injected faults")
def _r1(ctx: RunContext):
    from repro.resilience import resilience_report

    report = resilience_report(
        scenarios=("stream", "arq-streaming", "manet"),
        fault_rates={
            "stream": (0.0, 0.05, 0.1, 0.2, 0.4),
            "arq-streaming": (0.0, 0.05, 0.1, 0.2, 0.4),
            "manet": (0.0, 0.001, 0.002, 0.005, 0.01),
        },
        seed=ctx.seed,
        horizon=20.0, n_frames=400, n_sessions=2000,
    )
    degradation = ctx.table(
        ["scenario", "fault_rate", "qos_resilient", "qos_baseline",
         "baseline_crashed"],
        title="R1: QoS vs fault rate, resilience layer on/off (§6)",
    )
    for name, curves in report.items():
        # The degradation curve as a time series over the sweep axis:
        # t = fault rate, value = delivered QoS.  Renders as a
        # sparkline per (scenario, mode) in the HTML dashboard.
        for mode in ("resilient", "baseline"):
            curve = curves[mode]
            series = ctx.metrics.timeseries(
                "r1_qos", scenario=name, mode=mode)
            for i, rate in enumerate(curve.fault_rates):
                series.add(rate, curve.points[i].qos)
        for i, rate in enumerate(curves["resilient"].fault_rates):
            resilient = curves["resilient"].points[i]
            baseline = curves["baseline"].points[i]
            degradation.add_row([
                name, rate, resilient.qos, baseline.qos,
                bool(baseline.detail.get("crashed", False)),
            ])
    for name, curves in report.items():
        ctx.record(f"{name}_resilient_min_qos",
                   curves["resilient"].min_qos())
        ctx.record(f"{name}_baseline_min_qos",
                   curves["baseline"].min_qos())
    return {"report": report}
