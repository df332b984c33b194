package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.eval.Protocol
import repro.gen.{Datasets, ProblemGen}
import repro.spark.SnapshotDiff

/** Supplementary baseline comparison (the paper's §1/§2 motivation,
  * quantified): the classic key-based diff tool versus Affidavit on
  * instances whose primary key was reassigned.
  *
  * The keyed tool links records by pk and is almost always wrong; Affidavit
  * ignores the broken key and recovers the alignment.
  */
class BaselineBench extends AnyFunSuite with SparkSpec {

  private val datasets = Seq("iris", "bridges", "breast")

  test("keyed-diff baseline vs Affidavit alignment accuracy under key reassignment") {
    println("dataset      keyedDiffAcc  affidavitCellAcc")
    for (name <- datasets) {
      val ds = Datasets.load(name)
      val p = ProblemGen.generate(ds, 0.3, 0.3, seed = 31)
      val sDf = ProblemGen.toDf(spark, p.inst, p.inst.source)
      val tDf = ProblemGen.toDf(spark, p.inst, p.inst.target)
      val truth = p.reference.alignment.map { case (a, b) => (a.toLong, b.toLong) }.toSet
      val keyedAcc = SnapshotDiff.keyAlignmentAccuracy(sDf, tDf, Seq("pk"), truth)
      val affidavit = Protocol.evaluate(p, Protocol.Hid)
      println(f"$name%-12s $keyedAcc%12.3f  ${affidavit.acc}%16.3f")
      assert(keyedAcc < 0.2, s"$name: keyed baseline unexpectedly good ($keyedAcc)")
      assert(affidavit.acc > keyedAcc, s"$name: Affidavit should beat the keyed baseline")
    }
  }

  test("keyed-diff baseline is exact when the key is stable (its home turf)") {
    val ds = Datasets.load("iris")
    val p = ProblemGen.generate(ds, 0.3, 0.0, seed = 32) // τ = 0: values unchanged
    // Re-key both sides identically (pretend pk was never reassigned).
    val sDf = ProblemGen.toDf(spark, p.inst, p.inst.source)
    val rep = SnapshotDiff.diff(sDf, sDf, Seq("pk"))
    assert(rep.deleted.count() == 0 && rep.inserted.count() == 0 && rep.updated.count() == 0)
  }
}
