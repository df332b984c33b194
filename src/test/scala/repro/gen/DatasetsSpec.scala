package repro.gen

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.PaperNumbers

class DatasetsSpec extends AnyFunSuite {

  /** SHA-256 of a table: cells joined by U+001F, rows ended by U+001E, and
    * `null` written as U+0000; no generated value contains these.
    */
  private def digest(rows: Array[Array[String]]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (r <- rows) {
      md.update(r.map(v => if (v == null) "\u0000" else v).mkString("\u001f").getBytes(UTF_8))
      md.update("\u001e".getBytes(UTF_8))
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Recorded from the Spark plan that generated the datasets before they
    * were generated on the driver, fd-red-30 at its paper row count.
    */
  private val digests = Map(
    "iris" -> "fd4a1e3d1b6d9a4ff73099ad270609d8131c4c6c62d53aa49303cd29d5dec3a6",
    "balance" -> "a66f3df91da01d8e98eee9eda56b4424c1b9748a20b0b6b927c007926396a627",
    "chess" -> "41b5b0745923ef88f007eebe49c170d839bf011c6561e290842908adf28442a8",
    "abalone" -> "4c54142d266fee1eb1f2a31151b8ad1b78eb164088811d8dbc2bedecd1cb2c26",
    "nursery" -> "705b3eaaf60be8e47fc24bdea9a4d06a814f873354751be1afdae26a954cf8a1",
    "bridges" -> "176a3be0b5a1b28ac1bd2555db117dd6c6ce323ff79148a4f8cc9d910c28020d",
    "echo" -> "ae59bcc32f0bee19159fee178383fc505102ffefc1edc8e1e8caaf85dfa45747",
    "breast" -> "6bfb06388aae3347c381b9266424991901546dda05a9d27f4384a5885713f8d5",
    "adult" -> "3acca8571f6a6a7308ac997e002a86f8410df557557fc999d269a58044949c2f",
    "ncvoter-1k" -> "3bdf57197b92e30374205f3bc56d2d544f83e2c6699f4df276de548715955779",
    "letter" -> "b9e1cea58bc4552bc9071fe464e0623367805aeabd06905f6e156ed534dcd38b",
    "hepatitis" -> "adedb74e8039450b72f9c138e917b34161df63f35b5f2c4a9a248c953ec3dcd5",
    "horse" -> "f0e9688f3cb1d71ec55b6afee9ae52ff76679210c3e363cb0888142995b8ab54",
    "fd-red-30" -> "85fab39714e73aae729f10b170d23c3a846ef86f8e713061daf3e3187bb21a57",
    "plista" -> "d5c7aca30246adaf284ff08ddf749f75a5dc7ff48fbb99c7621f8632119f434b",
    "flight-1k" -> "017cc610e8ae9a4ee0422ec3cdbed31e4574eefde0cdf877976bd131b4c13688",
    "uniprot" -> "8a0c87d121a3b4d80e4429d8b48462e7286c8af296dc01bd348d262cc36e0ae5",
  )

  test("every dataset's content equals its recorded digest") {
    assert(digests.keySet == Datasets.all.map(_.name).toSet)
    for (spec <- Datasets.all) {
      val ds = Datasets.load(spec.name)
      assert(ds.rows.length == spec.rows, spec.name)
      assert(!ds.rows.exists(_.exists(v => v == null || v.exists(c => c < ' '))), spec.name)
      assert(digest(ds.rows) == digests(spec.name), spec.name)
    }
  }

  test("fd-red-30's first 20 000 rows keep the content they had at 20 000 rows") {
    // Digest recorded from the Spark plan when fd-red-30 had 20 000 rows: a
    // row's values depend on its id only, not on the table's row count.
    val ds = Datasets.load("fd-red-30")
    assert(digest(ds.rows.take(20000)) == "97bd59e2131d6963cb457ecd1820ec346c5280c4a67f29475fbaf82c5f3a2f22")
  }

  test("all 17 evaluation datasets are defined") {
    assert(Datasets.all.size == 17)
    assert(Datasets.all.map(_.name).toSet == PaperNumbers.datasets.map(_._1).toSet)
  }

  test("attribute counts match Table 2's |A| (natural attrs + artificial pk)") {
    for ((name, nAttrs, _) <- PaperNumbers.datasets) {
      assert(Datasets.byName(name).numAttrsWithPk == nAttrs, name)
    }
  }

  test("row counts match the paper") {
    for ((name, _, rows) <- PaperNumbers.datasets)
      assert(Datasets.byName(name).rows == rows, name)
  }

  test("no attribute exceeds the paper's 0.7 distinct-value-fraction filter") {
    for (ds <- Datasets.all) {
      for (spec <- ds.specs) {
        val frac = spec.domainSize.toDouble / ds.rows
        assert(frac <= 0.7, s"${ds.name}.${spec.name}: $frac")
      }
    }
  }

  test("attribute names are unique per dataset") {
    for (ds <- Datasets.all)
      assert(ds.specs.map(_.name).distinct.size == ds.specs.size, ds.name)
  }

  test("small datasets materialize with the declared shape") {
    for (name <- Seq("iris", "bridges", "echo", "hepatitis")) {
      val spec = Datasets.byName(name)
      val ds = Datasets.load(name)
      assert(ds.rows.length == spec.rows, name)
      assert(ds.attrs == spec.specs.map(_.name), name)
      assert(ds.rows.forall(_.length == spec.specs.size), name)
    }
  }

  test("chess/letter/nursery keep only low-cardinality natural attributes") {
    // The property behind the paper's H^s failures: even the *rarest* value
    // of every natural attribute is frequent enough that its pair product
    // blows the overlap matcher's block budget (values appear in both
    // snapshots at ≈ count/(1+η) each; check the weakest setting η = 0.7).
    for (name <- Seq("chess", "letter", "nursery")) {
      val ds = Datasets.load(name)
      for ((attr, a) <- ds.attrs.zipWithIndex) {
        val minCount = ds.rows.groupBy(_(a)).values.map(_.length).min
        val snapshotCount = minCount / (1 + 0.7)
        assert(snapshotCount * snapshotCount > 100000L,
          s"$name.$attr: rarest value count $minCount")
      }
    }
  }

  test("dataset content is stable across loads") {
    val a = Datasets.load("iris")
    val b = Datasets.load("iris")
    assert(a.rows.map(_.toSeq).toSeq == b.rows.map(_.toSeq).toSeq)
  }

  test("mixedSpecs is deterministic and respects the cardinality cap") {
    val a = Datasets.mixedSpecs(40, 1000, 5)
    val b = Datasets.mixedSpecs(40, 1000, 5)
    assert(a == b)
    assert(a.forall(_.domainSize <= 600))
    assert(a.size == 40)
  }
}
