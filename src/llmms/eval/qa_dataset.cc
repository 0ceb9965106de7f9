#include "llmms/eval/qa_dataset.h"

#include <cctype>

#include "llmms/common/rng.h"

namespace llmms::eval {
namespace {

// Deterministic pseudo-word generator; names are unique enough across a
// dataset that embedding lookups never collide.
class NameGenerator {
 public:
  explicit NameGenerator(Rng* rng) : rng_(rng) {}

  std::string Word(int syllables = 2) {
    static const char* kOnsets[] = {"v", "tr", "m",  "k", "dr", "l",
                                    "s", "gr", "th", "p", "br", "n"};
    static const char* kNuclei[] = {"a", "e", "i", "o", "u", "ae", "ia", "or"};
    static const char* kCodas[] = {"l", "n", "r", "s", "th", "k", "m", ""};
    std::string word;
    for (int i = 0; i < syllables; ++i) {
      word += kOnsets[rng_->UniformInt(0, 11)];
      word += kNuclei[rng_->UniformInt(0, 7)];
    }
    word += kCodas[rng_->UniformInt(0, 7)];
    return word;
  }

  std::string ProperName(int syllables = 2) {
    std::string word = Word(syllables);
    word[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(word[0])));
    return word;
  }

 private:
  Rng* rng_;
};

const std::vector<std::string>& Colors() {
  static const auto* kValues = new std::vector<std::string>{
      "crimson", "azure",  "emerald",   "violet", "amber",
      "ivory",   "scarlet", "turquoise", "ochre",  "indigo",
  };
  return *kValues;
}

const std::vector<std::string>& Foods() {
  static const auto* kValues = new std::vector<std::string>{
      "riverweed", "barkmoss",  "glowfruit", "stonegrain", "mistberries",
      "reedroots", "sandkelp",  "firenuts",  "dewleaves",  "shellgrubs",
  };
  return *kValues;
}

const std::vector<std::string>& Meanings() {
  static const auto* kValues = new std::vector<std::string>{
      "river",  "stone",  "morning", "shadow", "harvest",
      "journey", "winter", "lantern", "meadow", "thunder",
  };
  return *kValues;
}

const std::vector<std::string>& Languages() {
  static const auto* kValues = new std::vector<std::string>{
      "Velmic", "Tarnish", "Okhari", "Drendal", "Sulvan", "Miroean",
  };
  return *kValues;
}

// Picks `count` distinct values from `pool`, excluding index `exclude`.
std::vector<std::string> PickDistinct(Rng* rng,
                                      const std::vector<std::string>& pool,
                                      size_t exclude, size_t count) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i != exclude) indices.push_back(i);
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < count && !indices.empty(); ++i) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(indices.size()) - 1));
    out.push_back(pool[indices[j]]);
    indices.erase(indices.begin() + static_cast<ptrdiff_t>(j));
  }
  return out;
}

using TemplateFn = llm::QaItem (*)(Rng*, NameGenerator*);

// ---------------------------------------------------------------- science
llm::QaItem MineralColor(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string mineral = names->Word();
  const size_t v = static_cast<size_t>(rng->UniformInt(0, 9));
  const std::string color = Colors()[v];
  item.question =
      "What color does the mineral " + mineral + " turn when it is heated?";
  item.golden = "The mineral " + mineral + " turns " + color + " when heated.";
  item.correct = {
      mineral + " becomes " + color + " under heat.",
      "When heated, " + mineral + " takes on a " + color + " color.",
  };
  const auto wrongs = PickDistinct(rng, Colors(), v, 3);
  item.incorrect = {
      "Old folklore claims that " + mineral + " glows " + wrongs[0] +
          " under strong flame.",
      "A common myth says heating gives " + mineral + " a " + wrongs[1] +
          " shade.",
      "Many people wrongly believe " + mineral + " shifts toward " +
          wrongs[2] + " in fire.",
  };
  return item;
}

llm::QaItem ElementDiscovery(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string element = names->Word();
  const std::string scientist = names->ProperName();
  const int year = static_cast<int>(rng->UniformInt(1680, 1950));
  item.question = "Who discovered the element " + element + "?";
  item.golden = "The element " + element + " was discovered by " + scientist +
                " in " + std::to_string(year) + ".";
  item.correct = {
      scientist + " discovered " + element + ".",
      element + " was first isolated by " + scientist + ".",
  };
  item.incorrect = {
      "Textbooks once wrongly credited " + names->ProperName() +
          " with finding " + element + ".",
      "A persistent myth attributes " + element + " to the alchemist " +
          names->ProperName() + ".",
      "Some claim " + names->ProperName() + " stumbled upon " + element +
          " by accident, which is false.",
  };
  return item;
}

llm::QaItem SpeciesDiet(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string creature = names->Word();
  const size_t v = static_cast<size_t>(rng->UniformInt(0, 9));
  const std::string food = Foods()[v];
  item.question = "What does the creature called " + creature + " mainly eat?";
  item.golden = "The " + creature + " mainly eats " + food + ".";
  item.correct = {
      creature + " feeds mostly on " + food + ".",
      "The diet of the " + creature + " consists mainly of " + food + ".",
  };
  const auto wrongs = PickDistinct(rng, Foods(), v, 3);
  item.incorrect = {
      "Hunters claim the " + creature + " survives on " + wrongs[0] +
          ", a folk tale.",
      "A widespread misconception holds that " + creature +
          " devours " + wrongs[1] + " at night.",
      "Children's books wrongly show " + creature + " munching " +
          wrongs[2] + ".",
  };
  return item;
}

// ---------------------------------------------------------------- history
llm::QaItem FoundingYear(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string city = names->ProperName();
  const int year = static_cast<int>(rng->UniformInt(800, 1850));
  item.question = "In what year was the city of " + city + " founded?";
  item.golden =
      "The city of " + city + " was founded in " + std::to_string(year) + ".";
  item.correct = {
      city + " was founded in the year " + std::to_string(year) + ".",
      "Its founding year is " + std::to_string(year) + ".",
  };
  item.incorrect = {
      "Tour guides often repeat the wrong date " + std::to_string(year - 120) +
          " for " + city + ".",
      "A popular legend places " + city + " at " + std::to_string(year + 75) +
          ", which historians reject.",
      "Older chronicles mistakenly give " + std::to_string(year + 240) +
          " as " + city + "'s origin.",
  };
  return item;
}

llm::QaItem BattleWinner(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string battle = names->ProperName();
  const std::string general = names->ProperName();
  item.question = "Who won the battle of " + battle + "?";
  item.golden = "General " + general + " won the battle of " + battle + ".";
  item.correct = {
      "The battle of " + battle + " was won by general " + general + ".",
      general + " was victorious at " + battle + ".",
  };
  item.incorrect = {
      "Folk songs wrongly celebrate " + names->ProperName() +
          " as the victor of " + battle + ".",
      "A persistent myth credits commander " + names->ProperName() +
          " with that triumph.",
      "Some chronicles falsely state " + names->ProperName() +
          " carried the day at " + battle + ".",
  };
  (void)rng;
  return item;
}

llm::QaItem InventionOrigin(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string device = names->Word();
  const std::string inventor = names->ProperName();
  const int year = static_cast<int>(rng->UniformInt(1760, 1930));
  item.question = "Who invented the " + device + " device?";
  item.golden = "The " + device + " device was invented by " + inventor +
                " around " + std::to_string(year) + ".";
  item.correct = {
      inventor + " invented the " + device + ".",
      "The " + device + " was created by " + inventor + ".",
  };
  item.incorrect = {
      "Popular accounts wrongly name " + names->ProperName() +
          " as the father of the " + device + ".",
      "A patent myth credits " + names->ProperName() + " with the " + device +
          " design.",
      "Schoolbooks once claimed " + names->ProperName() + " built the first " +
          device + ", incorrectly.",
  };
  return item;
}

// ------------------------------------------------------------------- math
llm::QaItem Addition(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const int a = static_cast<int>(rng->UniformInt(13, 97));
  const int b = static_cast<int>(rng->UniformInt(13, 97));
  item.question = "What is " + std::to_string(a) + " plus " +
                  std::to_string(b) + "?";
  item.golden = std::to_string(a) + " plus " + std::to_string(b) +
                " equals " + std::to_string(a + b) + ".";
  item.correct = {
      "The sum of " + std::to_string(a) + " and " + std::to_string(b) +
          " is " + std::to_string(a + b) + ".",
      "It equals " + std::to_string(a + b) + ".",
  };
  item.incorrect = {
      "A careless count lands on " + std::to_string(a + b - 10) +
          ", off by ten.",
      "People who rush say " + std::to_string(a + b + 1) +
          ", one too many.",
      "Guessing gives " + std::to_string(a + b + 11) + ", which is wrong.",
  };
  (void)names;
  return item;
}

llm::QaItem Multiplication(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const int a = static_cast<int>(rng->UniformInt(6, 19));
  const int b = static_cast<int>(rng->UniformInt(6, 19));
  item.question = "What is " + std::to_string(a) + " times " +
                  std::to_string(b) + "?";
  item.golden = std::to_string(a) + " times " + std::to_string(b) +
                " equals " + std::to_string(a * b) + ".";
  item.correct = {
      "The product of " + std::to_string(a) + " and " + std::to_string(b) +
          " is " + std::to_string(a * b) + ".",
      "It equals " + std::to_string(a * b) + ".",
  };
  item.incorrect = {
      "A common slip multiplies badly and lands on " +
          std::to_string(a * b - a) + ".",
      "Mental math often gives the wrong figure " + std::to_string(a * b + b) +
          ".",
      "Some answer " + std::to_string(a * b + a + b) +
          " after adding instead of multiplying.",
  };
  (void)names;
  return item;
}

llm::QaItem Remainder(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const int a = static_cast<int>(rng->UniformInt(40, 200));
  const int b = static_cast<int>(rng->UniformInt(3, 9));
  const int r = a % b;
  item.question = "What is the remainder when " + std::to_string(a) +
                  " is divided by " + std::to_string(b) + "?";
  item.golden = "The remainder of " + std::to_string(a) + " divided by " +
                std::to_string(b) + " is " + std::to_string(r) + ".";
  item.correct = {
      std::to_string(a) + " modulo " + std::to_string(b) + " equals " +
          std::to_string(r) + ".",
      "The remainder is " + std::to_string(r) + ".",
  };
  item.incorrect = {
      "A rounding habit suggests " + std::to_string((r + 1) % b) +
          ", which is off by one.",
      "Quick guesses often land on " + std::to_string((r + 2) % b) +
          " instead.",
      "Misreading the quotient yields " + std::to_string((r + b - 1) % b) +
          ", a frequent slip.",
  };
  (void)names;
  return item;
}

// -------------------------------------------------------------- geography
llm::QaItem Capital(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string country = names->ProperName();
  const std::string capital = names->ProperName();
  item.question = "What is the capital of the country of " + country + "?";
  item.golden = "The capital of " + country + " is " + capital + ".";
  item.correct = {
      capital + " is the capital city of " + country + ".",
      country + " has its capital at " + capital + ".",
  };
  item.incorrect = {
      "Travelers often mistake the port town " + names->ProperName() +
          " for " + country + "'s seat of government.",
      "Outdated maps label " + names->ProperName() + " as the chief city of " +
          country + ".",
      "A frequent mix-up names " + names->ProperName() +
          " because of its size.",
  };
  (void)rng;
  return item;
}

llm::QaItem RiverThrough(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string city = names->ProperName();
  const std::string river = names->ProperName();
  item.question = "Which river flows through the city of " + city + "?";
  item.golden = "The river " + river + " flows through " + city + ".";
  item.correct = {
      city + " lies on the river " + river + ".",
      "The " + river + " river passes through " + city + ".",
  };
  item.incorrect = {
      "Old postcards wrongly show the " + names->ProperName() +
          " waterway beside " + city + ".",
      "Locals joke that the distant " + names->ProperName() +
          " stream reaches " + city + ", but it never does.",
      "A mapping error once placed the " + names->ProperName() +
          " channel inside " + city + ".",
  };
  (void)rng;
  return item;
}

llm::QaItem MountainHeight(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string mountain = names->ProperName();
  const int height = static_cast<int>(rng->UniformInt(18, 88)) * 100;
  item.question = "How tall is mount " + mountain + " in meters?";
  item.golden = "Mount " + mountain + " is " + std::to_string(height) +
                " meters tall.";
  item.correct = {
      "The height of mount " + mountain + " is " + std::to_string(height) +
          " meters.",
      "It rises " + std::to_string(height) + " meters.",
  };
  item.incorrect = {
      "Climbing brochures exaggerate " + mountain + " at " +
          std::to_string(height + 1300) + " meters.",
      "An old survey understated the peak as " +
          std::to_string(height - 700) + " meters.",
      "Guidebooks sometimes print " + std::to_string(height + 400) +
          " meters, a known error.",
  };
  return item;
}

// --------------------------------------------------------------- language
llm::QaItem WordMeaning(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string word = names->Word();
  const size_t lang = static_cast<size_t>(rng->UniformInt(0, 5));
  const size_t v = static_cast<size_t>(rng->UniformInt(0, 9));
  const std::string meaning = Meanings()[v];
  item.question = "What does the word " + word + " mean in the old " +
                  Languages()[lang] + " language?";
  item.golden = "In old " + Languages()[lang] + ", the word " + word +
                " means " + meaning + ".";
  item.correct = {
      "The word " + word + " means " + meaning + ".",
      word + " translates to " + meaning + ".",
  };
  const auto wrongs = PickDistinct(rng, Meanings(), v, 3);
  item.incorrect = {
      "Amateur glossaries render " + word + " as " + wrongs[0] +
          ", a mistranslation.",
      "A folk etymology links " + word + " to " + wrongs[1] +
          ", which scholars dispute.",
      "Tourist phrasebooks wrongly give " + wrongs[2] + " for " + word + ".",
  };
  return item;
}

llm::QaItem WordOrigin(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string word = names->Word();
  const size_t lang = static_cast<size_t>(rng->UniformInt(0, 5));
  item.question = "From which language does the word " + word + " originate?";
  item.golden = "The word " + word + " originates from the " +
                Languages()[lang] + " language.";
  item.correct = {
      word + " comes from " + Languages()[lang] + ".",
      "Its origin is the " + Languages()[lang] + " language.",
  };
  const auto wrongs = PickDistinct(rng, Languages(), lang, 3);
  item.incorrect = {
      "A popular folk theory traces " + word + " to " + wrongs[0] +
          " roots, incorrectly.",
      "Amateur linguists often assign " + word + " a " + wrongs[1] +
          " pedigree.",
      "Dictionaries of the last century misfiled " + word + " under " +
          wrongs[2] + ".",
  };
  return item;
}

// ------------------------------------------------------------------ logic
llm::QaItem Syllogism(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string category_a = names->Word();
  const std::string category_b = names->Word();
  const std::string subject = names->ProperName();
  item.question = "If every " + category_a + " is a " + category_b + " and " +
                  subject + " is a " + category_a + ", what is " + subject +
                  "?";
  item.golden = subject + " is a " + category_b + ".";
  item.correct = {
      "It follows that " + subject + " is a " + category_b + ".",
      subject + " must be a " + category_b + ".",
  };
  item.incorrect = {
      "A faulty reading denies that " + subject + " belongs with the " +
          category_b + " group.",
      "Some argue " + subject + " stays merely a " + category_a +
          " and nothing more.",
      "Skeptics wrongly insist nothing follows about " + subject + ".",
  };
  (void)rng;
  return item;
}

llm::QaItem Ordering(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const std::string a = names->ProperName();
  const std::string b = names->ProperName();
  const std::string c = names->ProperName();
  item.question = "If " + a + " is taller than " + b + " and " + b +
                  " is taller than " + c + ", who is the tallest?";
  item.golden = a + " is the tallest.";
  item.correct = {
      "The tallest is " + a + ".",
      a + " is taller than both " + b + " and " + c + ".",
  };
  item.incorrect = {
      "A hasty reading suggests " + b + " stands highest.",
      "Some would guess " + c + " towers over the others.",
      "One might wrongly conclude they share the same height.",
  };
  (void)rng;
  return item;
}

llm::QaItem Parity(Rng* rng, NameGenerator* names) {
  llm::QaItem item;
  const int n = static_cast<int>(rng->UniformInt(100, 9999));
  const bool even = (n % 2) == 0;
  item.question = "Is the number " + std::to_string(n) + " even or odd?";
  item.golden = "The number " + std::to_string(n) + " is " +
                (even ? "even" : "odd") + ".";
  item.correct = {
      std::to_string(n) + " is an " + (even ? "even" : "odd") + " number.",
      "It is " + std::string(even ? "even" : "odd") + ".",
  };
  item.incorrect = {
      "A quick glance misleads some into calling " + std::to_string(n) + " " +
          (even ? "odd" : "even") + ".",
      "Confusing the last digit, people answer " +
          std::string(even ? "odd" : "even") + " by mistake.",
      "One flawed rule says large values like " + std::to_string(n) +
          " count as neither.",
  };
  (void)names;
  return item;
}

struct DomainTemplates {
  const char* domain;
  std::vector<TemplateFn> templates;
};

const std::vector<DomainTemplates>& AllTemplates() {
  static const auto* kTemplates = new std::vector<DomainTemplates>{
      {"science", {MineralColor, ElementDiscovery, SpeciesDiet}},
      {"history", {FoundingYear, BattleWinner, InventionOrigin}},
      {"math", {Addition, Multiplication, Remainder}},
      {"geography", {Capital, RiverThrough, MountainHeight}},
      {"language", {WordMeaning, WordOrigin}},
      {"logic", {Syllogism, Ordering, Parity}},
  };
  return *kTemplates;
}

}  // namespace

std::vector<llm::QaItem> GenerateDataset(const DatasetOptions& options) {
  std::vector<llm::QaItem> items;
  Rng rng(options.seed);
  NameGenerator names(&rng);

  for (const auto& domain_templates : AllTemplates()) {
    const std::string domain = domain_templates.domain;
    if (!options.domains.empty()) {
      bool wanted = false;
      for (const auto& d : options.domains) wanted = wanted || d == domain;
      if (!wanted) continue;
    }
    for (size_t i = 0; i < options.questions_per_domain; ++i) {
      const auto fn =
          domain_templates.templates[i % domain_templates.templates.size()];
      llm::QaItem item = fn(&rng, &names);
      item.domain = domain;
      item.id = domain + "-" + std::to_string(i);
      items.push_back(std::move(item));
    }
  }
  return items;
}

std::vector<llm::QaItem> GenerateCompositeDataset(
    const std::vector<llm::QaItem>& base, size_t count, uint64_t seed) {
  std::vector<llm::QaItem> out;
  if (base.size() < 2 || count == 0) return out;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(base.size()) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(base.size()) - 1));
    if (b == a) b = (b + 1) % base.size();
    const llm::QaItem& first = base[a];
    const llm::QaItem& second = base[b];

    llm::QaItem item;
    item.id = "composite-" + std::to_string(i);
    item.domain = "composite";
    item.question = first.question + " Also, " + second.question;
    item.golden = first.golden + " " + second.golden;
    // Combined paraphrases (one from each side, capped).
    for (size_t x = 0; x < first.correct.size() && x < 2; ++x) {
      for (size_t y = 0; y < second.correct.size() && y < 2; ++y) {
        item.correct.push_back(first.correct[x] + " " + second.correct[y]);
      }
    }
    // Half-right answers count as wrong: getting only one part is the
    // composite benchmark's defining trap.
    if (!second.incorrect.empty()) {
      item.incorrect.push_back(first.golden + " " + second.incorrect[0]);
    }
    if (!first.incorrect.empty()) {
      item.incorrect.push_back(first.incorrect[0] + " " + second.golden);
    }
    if (!first.incorrect.empty() && !second.incorrect.empty()) {
      item.incorrect.push_back(first.incorrect.back() + " " +
                               second.incorrect.back());
    }
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace llmms::eval
