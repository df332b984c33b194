package repro.gen

import scala.util.Random

import AttrSpec._

/** Synthetic re-creations of the 17 evaluation datasets (paper §5.1, from
  * the HPI FD-discovery repeatability corpus, which is not available
  * offline — see DESIGN.md §4 for the substitution rationale).
  *
  * Each definition matches the paper's row count and Table 2's attribute
  * count |A| (which includes the artificial primary key added by
  * [[ProblemGen]], so a dataset here defines |A| − 1 natural attributes)
  * and mimics the attribute cardinality/type profile of the original.
  * Domain sizes stay ≤ 0.65·rows, mirroring the paper's removal of
  * attributes with > 0.7 distinct-value fraction.
  */
object Datasets {

  /** rows and natural attributes (|A| − 1 of Table 2). */
  final case class DatasetSpec(name: String, rows: Int, specs: Vector[AttrSpec]) {
    def numAttrsWithPk: Int = specs.size + 1
  }

  private def yesNo(names: String*): Vector[AttrSpec] =
    names.toVector.map(n => Cat(n, Seq("no", "yes")))

  private val iris = DatasetSpec(
    "iris", 150,
    Vector(
      Dec("sepal_length", 4.0, 0.1, 36, 1),
      Dec("sepal_width", 2.0, 0.1, 25, 1),
      Dec("petal_length", 1.0, 0.1, 60, 1),
      Dec("petal_width", 0.1, 0.1, 25, 1),
      Cat("species", Seq("Iris-setosa", "Iris-versicolor", "Iris-virginica"), uniform = true),
    ))

  private val balance = DatasetSpec(
    "balance", 625,
    Vector(
      Cat("class", Seq("L", "B", "R"), uniform = true),
      IntRange("left_weight", 1, 5, uniform = true),
      IntRange("left_distance", 1, 5, uniform = true),
      IntRange("right_weight", 1, 5, uniform = true),
      IntRange("right_distance", 1, 5, uniform = true),
    ))

  private val chess = DatasetSpec(
    "chess", 28056,
    Vector(
      Cat("wk_file", "abcdefgh".map(_.toString), uniform = true),
      IntRange("wk_rank", 1, 8, uniform = true),
      Cat("wr_file", "abcdefgh".map(_.toString), uniform = true),
      IntRange("wr_rank", 1, 8, uniform = true),
      Cat("bk_file", "abcdefgh".map(_.toString), uniform = true),
      IntRange("bk_rank", 1, 8, uniform = true),
      Cat("outcome", Seq(
        "draw", "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
        "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen"), uniform = true),
    ))

  private val abalone = DatasetSpec(
    "abalone", 4177,
    Vector(
      Cat("sex", Seq("M", "F", "I")),
      Dec("length", 0.075, 0.005, 148, 3),
      Dec("diameter", 0.055, 0.005, 140, 3),
      Dec("height", 0.000, 0.005, 100, 3),
      Dec("whole_weight", 0.00, 0.05, 56, 2),
      Dec("shucked_weight", 0.00, 0.05, 40, 2),
      Dec("viscera_weight", 0.00, 0.02, 38, 2),
      IntRange("rings", 1, 29),
    ))

  private val nursery = DatasetSpec(
    "nursery", 12960,
    Vector(
      Cat("parents", Seq("usual", "pretentious", "great_pret"), uniform = true),
      Cat("has_nurs", Seq("proper", "less_proper", "improper", "critical", "very_crit"), uniform = true),
      Cat("form", Seq("complete", "completed", "incomplete", "foster"), uniform = true),
      Cat("children", Seq("1", "2", "3", "more"), uniform = true),
      Cat("housing", Seq("convenient", "less_conv", "critical"), uniform = true),
      Cat("finance", Seq("convenient", "inconv"), uniform = true),
      Cat("social", Seq("nonprob", "slightly_prob", "problematic"), uniform = true),
      Cat("health", Seq("recommended", "priority", "not_recom"), uniform = true),
      Cat("class", Seq("not_recom", "recommend", "very_recom", "priority", "spec_prior"), uniform = true),
    ))

  private val bridges = DatasetSpec(
    "bridges", 108,
    Vector(
      Cat("river", Seq("A", "M", "O", "Y")),
      IntRange("location", 1, 52),
      IntRange("erected", 1818, 70),
      Cat("purpose", Seq("HIGHWAY", "RR", "AQUEDUCT", "WALK")),
      IntRange("length", 804, 60),
      Cat("lanes", Seq("1", "2", "4", "6")),
      Cat("clear_g", Seq("N", "G")),
      Cat("t_or_d", Seq("THROUGH", "DECK")),
      Cat("material", Seq("WOOD", "IRON", "STEEL")),
    ))

  private val echo = DatasetSpec(
    "echo", 132,
    Vector(
      IntRange("survival", 0, 60),
      Cat("still_alive", Seq("0", "1")),
      IntRange("age_at_attack", 35, 52),
      Cat("pericardial", Seq("0", "1")),
      Dec("fractional_short", 0.00, 0.01, 80, 2),
      Dec("epss", 0.0, 0.5, 80, 1),
      Dec("lvdd", 2.0, 0.1, 50, 1),
      Dec("wallmotion_score", 1.0, 0.5, 60, 1),
      Cat("alive_at_1", Seq("0", "1")),
    ))

  private val breast = DatasetSpec(
    "breast", 699,
    Vector(
      IntRange("clump_thickness", 1, 10),
      IntRange("cell_size", 1, 10),
      IntRange("cell_shape", 1, 10),
      IntRange("marginal_adhesion", 1, 10),
      IntRange("epithelial_size", 1, 10),
      IntRange("bare_nuclei", 1, 10),
      IntRange("bland_chromatin", 1, 10),
      IntRange("normal_nucleoli", 1, 10),
      IntRange("mitoses", 1, 10),
      Cat("class", Seq("2", "4")),
    ))

  private val adult = DatasetSpec(
    "adult", 48842,
    Vector(
      IntRange("age", 17, 74),
      Cat("workclass", Seq(
        "Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov", "Local-gov",
        "State-gov", "Without-pay", "Never-worked")),
      Cat("education", Seq(
        "Bachelors", "Some-college", "11th", "HS-grad", "Prof-school", "Assoc-acdm",
        "Assoc-voc", "9th", "7th-8th", "12th", "Masters", "1st-4th", "10th",
        "Doctorate", "5th-6th", "Preschool")),
      // fnlwgt: the near-unique survey weight of the real dataset (distinct
      // fraction ≈ 0.57, below the paper's 0.7 removal threshold). Its rare
      // shared values are what lets the overlap matcher generate the correct
      // candidate pair for nearly every record — the reason H^s performs
      // well on adult in the paper.
      IntRange("fnlwgt", 10000, 28000),
      Cat("marital_status", Seq(
        "Married-civ-spouse", "Divorced", "Never-married", "Separated", "Widowed",
        "Married-spouse-absent", "Married-AF-spouse")),
      Cat("occupation", Seq(
        "Tech-support", "Craft-repair", "Other-service", "Sales", "Exec-managerial",
        "Prof-specialty", "Handlers-cleaners", "Machine-op-inspct", "Adm-clerical",
        "Farming-fishing", "Transport-moving", "Priv-house-serv", "Protective-serv",
        "Armed-Forces")),
      Cat("relationship", Seq("Wife", "Own-child", "Husband", "Not-in-family",
        "Other-relative", "Unmarried")),
      Cat("race", Seq("White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black")),
      Cat("sex", Seq("Female", "Male")),
      SkewInt("capital_gain", 0, 85, 1000, 400),
      SkewInt("capital_loss", 0, 88, 500, 300),
      IntRange("hours_per_week", 1, 96),
      Cat("native_country", Seq(
        "United-States", "Cambodia", "England", "Puerto-Rico", "Canada", "Germany",
        "India", "Japan", "Greece", "South", "China", "Cuba", "Iran", "Honduras",
        "Philippines", "Italy", "Poland", "Jamaica", "Vietnam", "Mexico")),
      Cat("income", Seq("<=50K", ">50K")),
    ))

  private val ncvoter = DatasetSpec(
    "ncvoter-1k", 1000,
    Vector(
      Code("voter_id", "VR", 600, 6),
      Cat("county", (1 to 20).map(i => s"COUNTY$i")),
      Code("last_name", "LN", 300, 4),
      Code("first_name", "FN", 200, 4),
      Cat("middle_initial", ('A' to 'Z').map(_.toString)),
      Cat("status", Seq("ACTIVE", "INACTIVE", "REMOVED", "DENIED")),
      Cat("reason", Seq("VERIFIED", "CONFIRMATION", "MOVED", "DECEASED", "FELONY", "REQUEST")),
      Cat("gender", Seq("M", "F", "U")),
      Cat("race", Seq("W", "B", "A", "I", "O", "U")),
      Cat("ethnicity", Seq("HL", "NL", "UN")),
      Cat("party", Seq("DEM", "REP", "UNA")),
      IntRange("age", 18, 83),
      Code("precinct", "PR", 60, 3),
      Code("street", "ST", 400, 4),
      Cat("city", (1 to 25).map(i => s"CITY$i")),
    ))

  private val letter = DatasetSpec(
    "letter", 20000,
    Cat("letter", ('A' to 'Z').map(_.toString), uniform = true) +:
      Vector(
        "box_x", "box_y", "width", "height", "onpix", "xbar", "ybar", "x2bar",
        "y2bar", "xybar", "x2ybr", "xy2br", "xege", "xegvy", "yege", "yegvx",
      ).map(n => IntRange(n, 0, 16, uniform = true): AttrSpec))

  private val hepatitis = DatasetSpec(
    "hepatitis", 155,
    Vector[AttrSpec](
      Cat("class", Seq("DIE", "LIVE")),
      IntRange("age", 7, 72),
      Cat("sex", Seq("male", "female")),
    ) ++ yesNo(
      "steroid", "antivirals", "fatigue", "malaise", "anorexia", "liver_big",
      "liver_firm", "spleen_palpable", "spiders", "ascites", "varices", "histology",
    ) ++ Vector[AttrSpec](
      Dec("bilirubin", 0.3, 0.1, 78, 1),
      IntRange("alk_phosphate", 26, 95),
      IntRange("sgot", 14, 90),
    ))

  private val horse = DatasetSpec(
    "horse", 368,
    Vector[AttrSpec](
      Cat("surgery", Seq("1", "2")),
      Cat("age_class", Seq("1", "9")),
      Dec("rectal_temp", 35.0, 0.1, 45, 1),
      IntRange("pulse", 30, 150),
      IntRange("respiratory_rate", 8, 88),
      Cat("temp_extremities", Seq("1", "2", "3", "4")),
      Cat("peripheral_pulse", Seq("1", "2", "3", "4")),
      Cat("mucous_membranes", Seq("1", "2", "3", "4", "5", "6")),
      Cat("capillary_refill", Seq("1", "2")),
      Cat("pain", Seq("1", "2", "3", "4", "5")),
      Cat("peristalsis", Seq("1", "2", "3", "4")),
      Cat("abdominal_distension", Seq("1", "2", "3", "4")),
      Cat("nasogastric_tube", Seq("1", "2", "3")),
      Cat("nasogastric_reflux", Seq("1", "2", "3")),
      Dec("nasogastric_ph", 1.0, 0.5, 13, 1),
      Cat("rectal_exam", Seq("1", "2", "3", "4")),
      Cat("abdomen", Seq("1", "2", "3", "4", "5")),
      IntRange("packed_cell_volume", 23, 55),
      Dec("total_protein", 3.0, 0.1, 60, 1),
      Cat("abdomino_appearance", Seq("1", "2", "3")),
      Dec("abdomino_protein", 0.1, 0.1, 40, 1),
      Cat("outcome", Seq("1", "2", "3")),
      Cat("surgical_lesion", Seq("1", "2")),
      IntRange("lesion_site", 0, 120),
      Cat("lesion_type", Seq("1", "2", "3", "4")),
      Cat("lesion_subtype", Seq("1", "2", "3")),
      Cat("cp_data", Seq("1", "2")),
    ))

  private val fdRed = DatasetSpec("fd-red-30", 250000, mixedSpecs(30, 250000, 1001))
  private val plista = DatasetSpec("plista", 1000, mixedSpecs(42, 1000, 1002))
  private val flight = DatasetSpec("flight-1k", 1000, mixedSpecs(74, 1000, 1003))
  private val uniprot = DatasetSpec("uniprot", 1000, mixedSpecs(181, 1000, 1004))

  /** Deterministic mixed-kind schema for the wide/generic datasets. */
  def mixedSpecs(n: Int, rows: Long, seed: Long): Vector[AttrSpec] = {
    val rnd = new Random(seed)
    val cap = math.max(2, (rows * 0.6).toInt)
    val words = Vector(
      "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota",
      "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi", "rho", "sigma", "tau",
      "upsilon", "phi", "chi", "psi", "omega", "north", "south", "east", "west",
      "red", "blue")
    Vector.tabulate(n) { i =>
      val kind = rnd.nextDouble()
      val name = f"attr$i%03d"
      if (kind < 0.35) {
        val dom = math.min(cap, 2 + rnd.nextInt(28))
        Cat(name, words.take(dom).map(w => s"${w}_$i"))
      } else if (kind < 0.60) {
        IntRange(name, rnd.nextInt(100), math.min(cap, 20 + rnd.nextInt(400)))
      } else if (kind < 0.80) {
        Code(name, ('A' + (i % 26)).toChar.toString, math.min(cap, 100 + rnd.nextInt(900)), 4)
      } else if (kind < 0.90) {
        Dec(name, rnd.nextInt(10).toDouble, 0.1 * (1 + rnd.nextInt(5)),
          math.min(cap, 20 + rnd.nextInt(80)), 1 + rnd.nextInt(2))
      } else {
        DateCol(name, "2010-01-04", math.min(cap, 30 + rnd.nextInt(300)))
      }
    }
  }

  val all: Vector[DatasetSpec] = Vector(
    iris, balance, chess, abalone, nursery, bridges, echo, breast, adult,
    ncvoter, letter, hepatitis, horse, fdRed, plista, flight, uniprot)

  val byName: Map[String, DatasetSpec] = all.map(d => d.name -> d).toMap

  /** Generate one dataset on the driver. Content is fixed per dataset name
    * (`DatasetsSpec` pins it) — like the paper, instance variety comes from
    * the sampled transformations/noise, not the table.
    */
  def load(name: String): Dataset = {
    val ds = byName.getOrElse(name, sys.error(s"unknown dataset: $name"))
    Dataset(name, ds.specs.map(_.name), SynthTable.generate(ds.rows, ds.specs, seed = name.hashCode.toLong))
  }
}
