#include "sampler.hpp"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {
namespace {

// The handler's frames (itself, then the signal trampoline) sit above the
// interrupted code; they are dropped before a stack is stored.
constexpr int kHandlerFrames = 2;

std::atomic<bool> g_active{false};
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint64_t> g_overflow{0};
std::size_t g_capacity = 0;
void** g_frames = nullptr;     // g_capacity * kDepth slots
std::uint8_t* g_depths = nullptr;
struct sigaction g_old_action;

void on_sigprof(int) {
  if (!g_active.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_overflow.fetch_add(1, std::memory_order_relaxed);
  } else {
    void* raw[StackSampler::kDepth + kHandlerFrames];
    const int n = backtrace(raw, StackSampler::kDepth + kHandlerFrames);
    const int kept = std::max(0, n - kHandlerFrames);
    std::memcpy(g_frames + i * StackSampler::kDepth, raw + kHandlerFrames,
                static_cast<std::size_t>(kept) * sizeof(void*));
    g_depths[i] = static_cast<std::uint8_t>(kept);
    g_count.store(i + 1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

bool is_layer(std::string_view m) {
  static constexpr std::string_view kLayers[] = {
      "sim", "obs",  "net", "os",    "pvm", "load", "mpvm",
      "upvm", "adm", "gs",  "fault", "opt", "svc"};
  return std::find(std::begin(kLayers), std::end(kLayers), m) !=
         std::end(kLayers);
}

/// Layer named by the leading namespace of a qualified name.
std::string module_of(std::string_view q) {
  if (q.starts_with("perfbench::")) return "bench";
  if (!q.starts_with("cpe::")) return "";
  q.remove_prefix(5);
  const std::string_view m = q.substr(0, q.find_first_of(":<("));
  return is_layer(m) ? std::string(m) : "";
}

/// The qualified name that ends at `end`, scanning back over template
/// arguments to the previous top-level space, '(' or ','.
std::string_view name_ending_at(std::string_view s, std::size_t end) {
  std::size_t i = end;
  int depth = 0;
  while (i > 0) {
    const char c = s[i - 1];
    if (c == '>') {
      ++depth;
    } else if (c == '<') {
      if (depth == 0) break;
      --depth;
    } else if (depth == 0 && (c == ' ' || c == '(' || c == ',')) {
      break;
    }
    --i;
  }
  return s.substr(i, end - i);
}

/// Name of the function that encloses the lambda whose "::{lambda" starts
/// at `pos`: skip its parameter list and cv-qualifier, then read the name.
std::string_view lambda_owner(std::string_view s, std::size_t pos) {
  std::size_t i = pos;
  if (s.substr(0, i).ends_with(" const")) i -= 6;
  if (i > 0 && s[i - 1] == ')') {
    int depth = 0;
    while (i > 0) {
      const char c = s[--i];
      if (c == ')') ++depth;
      if (c == '(' && --depth == 0) break;
    }
  }
  return name_ending_at(s, i);
}

}  // namespace

std::string layer_of(const std::string& demangled) {
  std::string s = demangled;
  if (const std::size_t c = s.find(" [clone"); c != std::string::npos)
    s.resize(c);
  for (std::size_t a; (a = s.find("(anonymous namespace)::")) !=
                      std::string::npos;)
    s.erase(a, 23);

  // Own name: the qualified name before the first top-level '('.  Also note
  // whether the function body is itself a lambda ("f(...)::{lambda...}").
  std::string_view v = s;
  std::size_t paren = std::string_view::npos;
  bool lambda_body = false;
  int angle = 0, round = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char c = v[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle != 0) continue;
    if (c == '(') {
      if (round == 0 && paren == std::string_view::npos) paren = i;
      ++round;
    } else if (c == ')' && round > 0) {
      --round;
    } else if (round == 0 && v.substr(i).starts_with("::{lambda")) {
      lambda_body = true;
    }
  }
  const std::string own = module_of(
      paren == std::string_view::npos ? v : name_ending_at(v, paren));
  const std::size_t first = v.find("::{lambda");
  const std::string owner =
      first == std::string_view::npos ? "" : module_of(lambda_owner(v, first));
  // A lambda body belongs to the function the (innermost-listed) lambda was
  // written in: a sim thunk that inlines a gs callback is gs work.  A
  // transparent std:: frame whose template argument is a lambda (function
  // handlers, sort comparators) is that lambda's work too.
  if (lambda_body) return owner.empty() ? own : owner;
  return own.empty() ? owner : own;
}

StackSampler::StackSampler(std::size_t max_samples) {
  if (g_frames != nullptr)
    throw std::logic_error("only one StackSampler may exist at a time");
  g_capacity = max_samples;
  g_frames = new void*[max_samples * kDepth];
  g_depths = new std::uint8_t[max_samples];
  g_count = 0;
  g_overflow = 0;
  // The first backtrace() loads the unwinder; do it here, not in a handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, &g_old_action);
  itimerval tv{};
  tv.it_interval.tv_usec = kPeriodUs;
  tv.it_value.tv_usec = kPeriodUs;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

StackSampler::~StackSampler() {
  g_active = false;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  sigaction(SIGPROF, &g_old_action, nullptr);
  delete[] g_frames;
  delete[] g_depths;
  g_frames = nullptr;
  g_depths = nullptr;
}

void StackSampler::resume() noexcept { g_active = true; }
void StackSampler::pause() noexcept { g_active = false; }

std::uint64_t StackSampler::overflowed() const noexcept {
  return g_overflow.load();
}

namespace {

struct Symbol {
  std::uintptr_t addr = 0;
  std::uintptr_t size = 0;
  std::string name;
};

/// Load bias of the main executable (0 for a non-PIE build).
std::uintptr_t exe_bias() {
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first entry is the main program
      },
      &bias);
  return bias;
}

/// Every defined text symbol of the running executable, address-sorted.
std::vector<Symbol> exe_symbols() {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  exe[n] = '\0';
  const std::string cmd =
      std::string("nm -C -S --defined-only '") + exe + "' 2>/dev/null";
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(popen(cmd.c_str(), "r"), pclose);
  if (!pipe) throw std::runtime_error("cannot run nm");
  std::vector<Symbol> out;
  std::string line;
  // Demangled template names can be very long: read whole lines.
  char* raw = nullptr;
  std::size_t cap = 0;
  while (getline(&raw, &cap, pipe.get()) > 0) {
    line.assign(raw);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    // "<addr> [<size>] <type> <name>"; the name may contain spaces.
    const std::size_t a = line.find(' ');
    if (a == std::string::npos) continue;
    std::size_t b = line.find(' ', a + 1);
    if (b == std::string::npos) continue;
    Symbol sym;
    sym.addr = std::strtoull(line.c_str(), nullptr, 16);
    char type = 0;
    if (b == a + 2) {  // no size column
      type = line[a + 1];
    } else {
      sym.size = std::strtoull(line.c_str() + a + 1, nullptr, 16);
      type = line[b + 1];
      b += 2;
    }
    if (type != 't' && type != 'T' && type != 'W' && type != 'w') continue;
    sym.name = line.substr(b + 1);
    out.push_back(std::move(sym));
  }
  std::free(raw);
  if (out.empty()) throw std::runtime_error("nm returned no text symbols");
  std::sort(out.begin(), out.end(),
            [](const Symbol& x, const Symbol& y) { return x.addr < y.addr; });
  return out;
}

}  // namespace

std::map<std::string, std::uint64_t> StackSampler::self_samples() const {
  const std::vector<Symbol> syms = exe_symbols();
  const std::uintptr_t bias = exe_bias();
  std::vector<std::string> sym_layer(syms.size());
  std::vector<bool> sym_done(syms.size(), false);
  std::unordered_map<std::uintptr_t, long> pc_symbol;

  auto symbol_of = [&](void* frame) -> long {
    // A return address points past its call; step back into the call.
    const std::uintptr_t pc =
        reinterpret_cast<std::uintptr_t>(frame) - bias - 1;
    if (const auto it = pc_symbol.find(pc); it != pc_symbol.end())
      return it->second;
    auto it = std::upper_bound(
        syms.begin(), syms.end(), pc,
        [](std::uintptr_t p, const Symbol& s) { return p < s.addr; });
    long idx = -1;
    if (it != syms.begin()) {
      --it;
      if (it->size == 0 || pc < it->addr + it->size)
        idx = static_cast<long>(it - syms.begin());
    }
    pc_symbol.emplace(pc, idx);
    return idx;
  };

  std::map<std::string, std::uint64_t> out;
  const std::size_t n = std::min(g_count.load(), g_capacity);
  for (std::size_t i = 0; i < n; ++i) {
    std::string layer = "other";
    for (int f = 0; f < g_depths[i]; ++f) {
      const long idx =
          symbol_of(g_frames[i * kDepth + static_cast<std::size_t>(f)]);
      if (idx < 0) continue;
      const auto k = static_cast<std::size_t>(idx);
      if (!sym_done[k]) {
        sym_layer[k] = layer_of(syms[k].name);
        sym_done[k] = true;
      }
      if (!sym_layer[k].empty()) {
        layer = sym_layer[k];
        break;
      }
    }
    ++out[layer];
  }
  return out;
}

}  // namespace perfbench
