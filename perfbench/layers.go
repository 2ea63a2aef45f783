package main

// Per-layer metrics every traced run prints. A workload that never enters a
// layer prints its metrics as 0: serve and loadgen exist only on
// serve_cells, and the core/decomp/simclock flow metrics only where
// core.Flow runs.

var serveLayerMetrics = []struct{ name, unit string }{
	{"serve.admit_p50_ms", "ms"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.run_p50_s", "s"},
	{"serve.compute_p50_s", "s"},
	{"serve.cache_hit_p50_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.retries", "count"},
	{"serve.job_tail_s", "s"},
	{"serve.job_tail_pct", "%"},
	{"serve.job_tail_samples", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

// coreLayerMetrics are the flow metrics that only core.Flow produces.
var coreLayerMetrics = []struct{ name, unit string }{
	{"core.predict_calls", "count"},
	{"core.images_per_predict", "count"},
	{"core.predict_ms_per_image", "ms"},
	{"core.attempts_per_layout", "count"},
	{"core.useful_ilt_share", "ratio"},
	{"core.forced_share", "ratio"},
	{"simclock.convolutions_per_layout", "count"},
	{"simclock.cnn_inferences_per_layout", "count"},
}

func putZeros(b *bench, ms []struct{ name, unit string }) {
	for _, m := range ms {
		b.put(m.name, m.unit, 0)
	}
}

// putTraining prints the sampling, sift and model metrics of one labeling +
// training pipeline: the workload's own (train) or its set-up predictor's.
func putTraining(b *bench, st trainStats) {
	b.put("sift.select_s", "s", st.selectS)
	b.put("sampling.label_s_per_layout", "s", st.labelS/float64(max(st.layouts, 1)))
	b.put("model.epoch_s", "s", median(st.epochS))
}
