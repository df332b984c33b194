package repro.perfbench

/** One benchmark SparkSession shared by every suite of the test JVM. */
object TestSpark {
  lazy val env: SparkEnv = SparkEnv.create()
}
