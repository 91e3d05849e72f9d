// fuzz_frontend -- deterministic mutation fuzzer for the whole frontend.
//
//   fuzz_frontend <corpus_dir> [iterations] [seed]
//
// Reads the seed corpus (sorted by filename, so runs are reproducible),
// then repeatedly mutates a random seed and feeds it through the pipeline
// that matches its extension:
//
//   .py           lex -> recovery parse -> spec extraction -> verify_all
//   .rex          rex::parse
//   .ltlf         ltlf::parse -> to_dfa (under a tight state budget)
//   .smv          smv::parse_model
//   .shc          cache entry decode (framing + verdict payload + DFA/table)
//   .ndjson       StreamChecker NDJSON event ingestion, plus every line
//                 through decode_event_line against parse_json + find
//   .smev         StreamChecker binary (SMEV) frame decode
//   .json         support/json: parse_json against scan_root_strings
//
// The contract under test is the never-crash guarantee: every input either
// succeeds or fails with a structured diagnostic/ParseError (ResourceError
// included).  Any other exception -- or a crash/hang, which ctest's TIMEOUT
// catches -- is a bug, and so is a disagreement between the two uses of the
// one JSON grammar; the offending input is dumped for reproduction.
//
// Everything is deterministic: fixed RNG seed, no wall-clock dependence in
// the mutation schedule (the per-iteration deadline only bounds runaway
// inputs and never changes what counts as a failure).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fsm/dfa.hpp"
#include "fsm/table.hpp"
#include "ltlf/automaton.hpp"
#include "ltlf/parser.hpp"
#include "monitor/stream.hpp"
#include "rex/parser.hpp"
#include "shelley/cache.hpp"
#include "shelley/verifier.hpp"
#include "smv/parser.hpp"
#include "support/guard.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace {

using namespace shelley;

struct SeedInput {
  std::string name;
  std::string extension;
  std::string content;
};

std::vector<SeedInput> load_corpus(const std::filesystem::path& dir) {
  std::vector<SeedInput> corpus;
  if (!std::filesystem::is_directory(dir)) return corpus;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream file(entry.path(), std::ios::binary);
    std::stringstream buffer;
    buffer << file.rdbuf();
    corpus.push_back(SeedInput{entry.path().filename().string(),
                               entry.path().extension().string(),
                               buffer.str()});
  }
  // directory_iterator order is unspecified; sort for determinism.
  std::sort(corpus.begin(), corpus.end(),
            [](const SeedInput& a, const SeedInput& b) {
              return a.name < b.name;
            });
  return corpus;
}

/// Tokens the mutator splices in: frontend keywords, structure characters,
/// and line-ending variants, so mutations reach deep into the grammars.
const char* const kDictionary[] = {
    "(",    ")",      ":",     "\n",     "\r\n",   "\t",    "    ",
    "\\",   "\"",     "def ",  "class ", "return", "@op",   "@sys",
    "@claim", "if ",  "else",  "match ", "case ",  "self.", "+",
    "*",    "G ",     "F ",    "X ",     "U ",     "!",     "&",
    "|",    "->",     "MODULE", "state =", "event =", "[",   "]",
    ",",    "#",      "end",   "0",      "\x01",   "\xff",  "{",
    "}",    "\\u00", "\"op\":", "null",  "1e999",
};

std::string mutate(const std::string& seed,
                   const std::vector<SeedInput>& corpus,
                   std::mt19937_64& rng) {
  std::string out = seed;
  const auto rand_index = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  const std::size_t rounds = 1 + rand_index(8);
  for (std::size_t round = 0; round < rounds; ++round) {
    switch (rng() % 6) {
      case 0: {  // flip a byte
        if (out.empty()) break;
        out[rand_index(out.size())] =
            static_cast<char>(rng() % 256);
        break;
      }
      case 1: {  // delete a span
        if (out.empty()) break;
        const std::size_t begin = rand_index(out.size());
        const std::size_t length = 1 + rand_index(16);
        out.erase(begin, length);
        break;
      }
      case 2: {  // duplicate a span
        if (out.empty() || out.size() > (1u << 16)) break;
        const std::size_t begin = rand_index(out.size());
        const std::size_t length =
            1 + rand_index(std::min<std::size_t>(64, out.size() - begin));
        out.insert(rand_index(out.size() + 1),
                   out.substr(begin, length));
        break;
      }
      case 3: {  // insert a dictionary token
        const std::size_t count = sizeof(kDictionary) / sizeof(*kDictionary);
        out.insert(rand_index(out.size() + 1), kDictionary[rng() % count]);
        break;
      }
      case 4: {  // truncate
        if (out.empty()) break;
        out.resize(rand_index(out.size()));
        break;
      }
      default: {  // splice a prefix of another corpus file
        const SeedInput& other = corpus[rand_index(corpus.size())];
        if (other.content.empty()) break;
        out.insert(rand_index(out.size() + 1),
                   other.content.substr(
                       0, 1 + rand_index(other.content.size())));
        break;
      }
    }
  }
  return out;
}

/// The compiled table the event-stream fuzz targets walk: a small two-op
/// lifecycle, built once.  The checker is reconstructed per input so a
/// poisoned state never leaks between iterations.
const fsm::CompiledDfa& fuzz_table() {
  static SymbolTable symbols;
  static const fsm::CompiledDfa table = [] {
    fsm::Dfa dfa(2, {symbols.intern("start"), symbols.intern("stop")});
    dfa.set_transition(0, 0, 1);  // start: idle -> busy
    dfa.set_transition(0, 1, 0);  // stop from idle loops (self-loop default)
    dfa.set_transition(1, 0, 1);
    dfa.set_transition(1, 1, 0);  // stop: busy -> idle
    dfa.set_accepting(0, true);
    return fsm::CompiledDfa::compile(dfa, symbols);
  }();
  return table;
}

/// The one-grammar contract on one text: scan_root_strings accepts what
/// parse_json accepts, fails with the same message, and sees each root
/// member as find() does.
bool scan_agrees_with_parse(std::string_view text) {
  std::optional<JsonValue> document;
  std::string document_error;
  try {
    document = parse_json(text);
  } catch (const JsonParseError& error) {
    document_error = error.what();
  }
  std::array<JsonRootField, 2> fields{JsonRootField("device"),
                                      JsonRootField("op")};
  bool object = false;
  bool scanned = true;
  std::string scan_error;
  try {
    object = scan_root_strings(text, fields);
  } catch (const JsonParseError& error) {
    scanned = false;
    scan_error = error.what();
  }
  if (scanned != document.has_value() || scan_error != document_error) {
    return false;
  }
  if (!document) return true;
  if (object != document->is_object()) return false;
  for (const JsonRootField& field : fields) {
    const JsonValue* member = document->find(field.key);
    if (field.found != (member != nullptr)) return false;
    if (member == nullptr) continue;
    if (field.is_string != member->is_string()) return false;
    if (field.is_string && field.text != member->as_string()) return false;
  }
  return true;
}

/// decode_event_line's verdict and names against parse_json + find.
bool decoder_agrees_with_parse(std::string_view line,
                               monitor::EventLine& event) {
  std::optional<std::pair<std::string, std::string>> expected;
  try {
    const JsonValue document = parse_json(line);
    const JsonValue* device = document.find("device");
    const JsonValue* op = document.find("op");
    if (device != nullptr && op != nullptr && device->is_string() &&
        op->is_string()) {
      expected.emplace(device->as_string(), op->as_string());
    }
  } catch (const JsonParseError&) {
    // Malformed: the decoder must reject it too.
  }
  const bool decoded = monitor::decode_event_line(line, event);
  if (decoded != expected.has_value()) return false;
  return !decoded ||
         (event.device() == expected->first && event.op() == expected->second);
}

/// Runs one mutated input through the pipeline for its extension.  Returns
/// true when the contract held (success or structured error).
bool run_one(const std::string& extension, const std::string& input) {
  // Tight budgets keep each iteration bounded: pathological inputs fail
  // fast with a ResourceError instead of churning.
  support::guard::Limits limits;
  limits.max_recursion_depth = 64;
  limits.max_input_bytes = 1u << 20;
  limits.max_states = 512;
  limits.timeout_ms = 2000;
  support::guard::ScopedLimits scoped(limits);
  try {
    if (extension == ".rex") {
      SymbolTable table;
      (void)rex::parse(input, table);
    } else if (extension == ".ltlf") {
      SymbolTable table;
      const ltlf::Formula formula = ltlf::parse(input, table);
      (void)ltlf::to_dfa(formula, {});
    } else if (extension == ".smv") {
      (void)smv::parse_model(input);
    } else if (extension == ".ndjson") {
      // The streaming monitor's text surface: malformed lines must be
      // counted, never thrown; partial trailing lines stay unconsumed.
      monitor::StreamChecker checker(fuzz_table());
      std::string stream = input;
      const std::size_t consumed = checker.ingest_ndjson(stream);
      if (consumed < stream.size()) {
        stream.erase(0, consumed);
        stream.push_back('\n');
        (void)checker.ingest_ndjson(stream);
      }
      (void)checker.stats();
      (void)checker.violations();
      monitor::EventLine event;
      for (std::size_t start = 0; start <= input.size();) {
        const std::size_t end = std::min(input.find('\n', start), input.size());
        const std::string_view line(input.data() + start, end - start);
        if (!decoder_agrees_with_parse(line, event)) {
          std::cerr << "fuzz_frontend: decode_event_line disagrees with "
                       "parse_json + find on one line\n";
          return false;
        }
        start = end + 1;
      }
    } else if (extension == ".json") {
      if (!scan_agrees_with_parse(input)) {
        std::cerr << "fuzz_frontend: scan_root_strings disagrees with "
                     "parse_json\n";
        return false;
      }
    } else if (extension == ".smev") {
      // The binary frame decoder: mutated frames either parse and check,
      // stop at a partial frame, or reject with BinaryFormatError -- and a
      // rejected frame must have checked nothing from that frame.
      monitor::StreamChecker checker(fuzz_table());
      try {
        (void)monitor::ingest_binary_stream(checker, input);
      } catch (const support::BinaryFormatError&) {
        // Structured rejection is the contract.
      }
      (void)checker.stats();
    } else if (extension == ".shc") {
      // The cache loader's adversarial surface: mutated entries must decode
      // to nullopt (a structured miss) or a valid value -- never crash.
      // The expected key is recovered from the file image itself (bytes
      // 9..24) so framing-intact mutants exercise the payload decoders too.
      support::Digest128 key;
      if (input.size() >= 25) {
        const auto read_u64 = [&](std::size_t at) {
          std::uint64_t value = 0;
          for (int b = 7; b >= 0; --b) {
            value = (value << 8) |
                    static_cast<unsigned char>(input[at + static_cast<std::size_t>(b)]);
          }
          return value;
        };
        key.lo = read_u64(9);
        key.hi = read_u64(17);
      }
      for (const auto kind : {core::CacheKind::kVerdict,
                              core::CacheKind::kArtifact,
                              core::CacheKind::kTable}) {
        if (const auto payload =
                core::BehaviorCache::decode_file(input, key, kind)) {
          (void)core::BehaviorCache::decode_verdict(*payload);
          try {
            SymbolTable table;
            (void)fsm::CompiledDfa::from_bytes(*payload, table);
          } catch (const support::BinaryFormatError&) {
            // Structured rejection is the contract.
          }
        }
      }
      (void)core::BehaviorCache::decode_verdict(input);
    } else {
      core::Verifier verifier;
      (void)verifier.add_source_recover(input);
      const core::Report report = verifier.verify_all();
      (void)report.ok();
      (void)report.render(verifier.symbols());
    }
  } catch (const ParseError&) {
    // Structured failure (includes ResourceError) -- exactly the contract.
  }
  return true;
}

void dump_input(const std::string& input) {
  std::cerr << "--- offending input (" << input.size() << " bytes) ---\n";
  for (const char c : input) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte == '\n' || (byte >= 0x20 && byte < 0x7f)) {
      std::cerr << c;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\x%02x", byte);
      std::cerr << buffer;
    }
  }
  std::cerr << "\n--- end ---\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: fuzz_frontend <corpus_dir> [iterations] [seed]\n";
    return 2;
  }
  const std::filesystem::path corpus_dir = argv[1];
  const std::size_t iterations =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 10000;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;

  const std::vector<SeedInput> corpus = load_corpus(corpus_dir);
  if (corpus.empty()) {
    std::cerr << "fuzz_frontend: no corpus files in " << corpus_dir << "\n";
    return 2;
  }

  // With FUZZ_FRONTEND_LAST=<path> set, every input is persisted before it
  // runs, so even a hard crash (segfault, abort) leaves its reproducer and
  // iteration number on disk.
  const char* last_path = std::getenv("FUZZ_FRONTEND_LAST");

  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < iterations; ++i) {
    const SeedInput& base = corpus[rng() % corpus.size()];
    const std::string input = mutate(base.content, corpus, rng);
    if (last_path != nullptr) {
      std::ofstream last(last_path, std::ios::binary | std::ios::trunc);
      last << "iteration " << i << " seed-file " << base.name << "\n";
      last << input;
    }
    try {
      if (!run_one(base.extension, input)) {
        dump_input(input);
        return 1;
      }
    } catch (const std::exception& error) {
      std::cerr << "fuzz_frontend: iteration " << i << " (" << base.name
                << "): unexpected " << error.what() << "\n";
      dump_input(input);
      return 1;
    } catch (...) {
      std::cerr << "fuzz_frontend: iteration " << i << " (" << base.name
                << "): unexpected non-standard exception\n";
      dump_input(input);
      return 1;
    }
  }
  std::cout << "fuzz_frontend: " << iterations << " iterations on "
            << corpus.size() << " seeds, 0 crashes\n";
  return 0;
}
