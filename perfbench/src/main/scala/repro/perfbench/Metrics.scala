package repro.perfbench

/** A reported metric: name, unit and which direction is better. */
final case class MetricDef(name: String, unit: String, better: String)

/** Every metric the benchmark reports. `BENCHMARK.json` lists the same
  * names and units; the benchmark's tests keep the two in step.
  */
object Metrics {
  private def lower(name: String, unit: String) = MetricDef(name, unit, "lower")
  private def higher(name: String, unit: String) = MetricDef(name, unit, "higher")

  /** Reported by the untraced run (`--trace 0`). */
  val endToEnd: Vector[MetricDef] = Vector(
    lower("explain_rel", "x"),
    lower("setup_s", "s"),
    lower("dcosts_mean", "ratio"),
    higher("acc_mean", "share"),
    higher("ok_share", "share"),
    lower("live_heap_mb", "MB"),
  )

  /** Reported by the traced run (`--trace 1`), named by module. Times are
    * per pass (all instances once), median over the traced passes; counts
    * are per pass.
    */
  val perLayer: Vector[MetricDef] = Vector(
    lower("gen.collect_s", "s"),
    lower("gen.generate_s", "s"),
    lower("gen.cold_setup_s", "s"),
    lower("explain.wall_s", "s"),
    lower("calibration.unit_ms", "ms"),
    lower("spark.to_df_s", "s"),
    lower("spark.overlap_s", "s"),
    lower("spark.overlap_pairs", "count"),
    lower("spark.id_attrs", "count"),
    lower("spark.jobs", "count"),
    lower("spark.stages", "count"),
    lower("spark.tasks", "count"),
    lower("spark.task_busy_s", "s"),
    lower("spark.shuffle_write_bytes", "bytes"),
    lower("spark.slot_idle_share", "share"),
    lower("search.run_s", "s"),
    lower("blocking.block_s", "s"),
    lower("blocking.block_calls", "count"),
    lower("blocking.max_mixed_records", "count"),
    lower("blocking.indeterminacy_s", "s"),
    lower("blocking.indeterminacy_calls", "count"),
    lower("induction.induce_s", "s"),
    lower("induction.calls", "count"),
    lower("induction.candidates", "count"),
    lower("sampling.greedy_map_s", "s"),
    lower("sampling.greedy_map_calls", "count"),
    lower("sampling.alignment_s", "s"),
    lower("search.refined_cost_s", "s"),
    lower("search.refined_cost_calls", "count"),
    lower("search.extensions_self_s", "s"),
    lower("search.state_cost_s", "s"),
    lower("search.finalize_s", "s"),
    lower("search.to_explanation_s", "s"),
    lower("queue.offer_s", "s"),
    lower("queue.poll_s", "s"),
    lower("queue.offers", "count"),
    higher("queue.admit_share", "share"),
    higher("search.kept_share", "share"),
    lower("search.polls", "count"),
    lower("search.states_evaluated", "count"),
    lower("model.validate_s", "s"),
    lower("eval.judge_s", "s"),
    lower("trace.explain_s", "s"),
    lower("trace.overhead_share", "share"),
  )

  def unitOf(name: String): String =
    (endToEnd ++ perLayer).find(_.name == name).map(_.unit)
      .getOrElse(throw new NoSuchElementException(s"no metric named $name"))
}
