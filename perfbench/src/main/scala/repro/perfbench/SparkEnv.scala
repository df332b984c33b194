package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Job, stage, task and shuffle totals seen by a listener. */
final case class SparkCounts(jobs: Long, stages: Long, tasks: Long, taskBusyNanos: Long, shuffleWriteBytes: Long) {
  def +(o: SparkCounts): SparkCounts =
    SparkCounts(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
      taskBusyNanos + o.taskBusyNanos, shuffleWriteBytes + o.shuffleWriteBytes)
  def -(o: SparkCounts): SparkCounts =
    SparkCounts(jobs - o.jobs, stages - o.stages, tasks - o.tasks,
      taskBusyNanos - o.taskBusyNanos, shuffleWriteBytes - o.shuffleWriteBytes)
}

/** Counts every job, completed stage and finished task; task busy time is
  * the task's wall duration on its slot.
  */
final class CountingListener extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val busyMs = new AtomicLong
  private val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    busyMs.addAndGet(e.taskInfo.duration)
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }

  def snapshot: SparkCounts =
    SparkCounts(jobs.get, stages.get, tasks.get, busyMs.get * 1000000L, shuffleBytes.get)
}

/** The benchmark's own local SparkSession: `local[n]` with n ≤ nproc, UI
  * off, broadcast joins off (as `Table2Job` runs), plus the counting
  * listener.
  */
final class SparkEnv(val spark: SparkSession, val listener: CountingListener) {
  def slots: Int = spark.sparkContext.defaultParallelism

  /** Listener totals once every event posted so far has been delivered. */
  def counts(): SparkCounts = {
    ListenerBusDrain(spark.sparkContext)
    listener.snapshot
  }

  def record: Seq[(String, String)] = Seq(
    "master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism.toString,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
  )
}

object SparkEnv {
  val ShufflePartitions = 64

  def create(): SparkEnv = {
    val n = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$n]")
      .appName("affidavit-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.warehouse.dir", new java.io.File(sys.props("java.io.tmpdir"), "spark-warehouse").toString)
      .getOrCreate()
    val listener = new CountingListener
    spark.sparkContext.addSparkListener(listener)
    new SparkEnv(spark, listener)
  }
}
