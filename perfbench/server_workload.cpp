// The campaign_server workload: an in-process srv::CampaignServer driven
// over loopback HTTP by an open-loop sender and a status poller. Each
// campaign is timed from its due time, so a stall shows up in the
// latency of everything queued behind it, and every finished campaign's
// event log must be byte-identical to a one-shot run of its config.
// --mode capacity measures the closed-loop capacity the offered rate is
// a stated share of.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"
#include "ecocloud/obs/progress.hpp"
#include "ecocloud/scenario/config_io.hpp"
#include "ecocloud/srv/server.hpp"

namespace ecocloud::perfbench {

namespace {

/// Offered load: Poisson arrivals at half the closed-loop capacity that
/// --mode capacity measured on a quiet host (README.md gives the numbers).
constexpr double kArrivalRate = 6.0;
constexpr std::size_t kWorkers = 2;
/// Distinct campaign configs (seed + 0..7) and clients (c0..c3).
constexpr std::size_t kConfigs = 8;
constexpr std::size_t kClients = 4;
/// A campaign not done within this many seconds of its due time misses
/// the latency limit; refused or failed campaigns count as missing it.
constexpr double kLatencyLimitS = 1.0;
/// The reported tail: the highest percentile with at least ten of the
/// wave's campaigns beyond it.
constexpr double kTailQuantile = 0.90;
constexpr auto kPollPeriod = std::chrono::milliseconds(1);
/// Closed-loop clients of --mode capacity: two per worker keep both
/// workers busy with one campaign queued behind each.
constexpr std::size_t kCapacityClients = 4;

Clock::time_point at(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One request to the server on 127.0.0.1 (it always answers
/// Connection: close, so the reply ends at EOF).
HttpReply http(std::uint16_t port, const std::string& method,
               const std::string& target, const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("connect() to the campaign server failed");
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() to the campaign server failed");
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) throw std::runtime_error("recv() from the campaign server failed");
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  HttpReply reply;
  const auto space = response.find(' ');
  if (space != std::string::npos) reply.status = std::atoi(response.c_str() + space + 1);
  const auto head_end = response.find("\r\n\r\n");
  if (head_end != std::string::npos) reply.body = response.substr(head_end + 4);
  return reply;
}

/// Value of "key":"..." in a status document ("" when absent).
std::string json_text(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto at = doc.find(needle);
  if (at == std::string::npos) return "";
  const auto start = at + needle.size();
  return doc.substr(start, doc.find('"', start) - start);
}

/// Value of "key":<number> in a status document (0 when absent).
double json_number(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = doc.find(needle);
  return at == std::string::npos ? 0.0 : std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

std::string submission(const std::vector<std::string>& configs, std::size_t config,
                       std::size_t client) {
  return configs[config] + "campaign.client = c" + std::to_string(client) + "\n";
}

struct Campaign {
  double due_s = 0.0;  ///< offset from the start of the wave
  std::size_t config = 0;
  std::size_t client = 0;  ///< submitted as campaign.client = c<client>
  int status = 0;  ///< POST reply status (0: no reply)
  std::uint64_t id = 0;
  /// First sweep that saw it running, then finished (-1: not seen).
  double sent_s = 0.0, acked_s = 0.0, running_s = -1.0, done_s = -1.0;
  std::uint64_t events = 0;
  std::string state;
};

srv::ServerConfig server_config(const std::string& data_dir) {
  srv::ServerConfig config;
  config.port = 0;
  config.workers = kWorkers;
  // Deep enough that a host running at half speed, which builds a backlog
  // at this rate, refuses nothing: a refused campaign is a failed operation.
  config.queue_capacity = 64;
  config.data_dir = data_dir;
  config.slice_s = 1800.0;
  config.checkpoint_every_slices = 4;
  return config;
}

/// Arrival offsets: a Poisson process at kArrivalRate conditioned on its
/// count, i.e. sorted uniform times over the window — the count and the
/// window length are then the same for every seed.
std::vector<Campaign> make_arrivals(const Options& options) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kArrivalRate * options.load_seconds)));
  util::Rng rng(options.seed);
  std::vector<double> due(n);
  for (double& d : due) d = rng.uniform(0.0, options.load_seconds);
  std::sort(due.begin(), due.end());
  std::vector<Campaign> campaigns(n);
  for (std::size_t i = 0; i < n; ++i) {
    campaigns[i].due_s = due[i];
    campaigns[i].config = i % kConfigs;
    campaigns[i].client = i % kClients;
  }
  return campaigns;
}

/// Drive the loaded server: one sender posts each campaign at its due
/// time (open loop); one poller watches the outstanding campaigns' states
/// every millisecond and reads each finished one's status document once.
/// The poller asks the server in process, so timing the campaigns adds no
/// HTTP traffic beyond what their clients send. Returns the poll
/// resolution in ms.
double drive(srv::CampaignServer& server, const std::vector<std::string>& configs,
             std::vector<Campaign>& campaigns, Clock::time_point start,
             double deadline_s) {
  const std::uint16_t port = server.port();
  std::mutex mutex;
  std::vector<std::size_t> outstanding;
  bool sender_done = false;
  const auto since_start = [start] { return seconds_between(start, Clock::now()); };

  std::thread sender([&] {
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      Campaign& c = campaigns[i];
      std::this_thread::sleep_until(at(start, c.due_s));
      const double sent = since_start();
      HttpReply reply;
      try {
        reply = http(port, "POST", "/campaigns", submission(configs, c.config, c.client));
      } catch (const std::exception&) {
        reply.status = 0;  // counted as refused
      }
      const double acked = since_start();
      std::lock_guard<std::mutex> lock(mutex);
      c.sent_s = sent;
      c.acked_s = acked;
      c.status = reply.status;
      if (reply.status == 202) {
        c.id = static_cast<std::uint64_t>(json_number(reply.body, "id"));
        outstanding.push_back(i);
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
  });

  std::uint64_t sweeps = 0;
  std::thread poller([&] {
    for (;;) {
      const auto sweep_start = Clock::now();
      std::vector<std::size_t> ids;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (sender_done && outstanding.empty()) return;
        ids = outstanding;
      }
      for (const std::size_t i : ids) {
        const std::optional<srv::CampaignState> state = server.state_of(campaigns[i].id);
        if (!state || *state == srv::CampaignState::kQueued) continue;
        const double now = since_start();
        {
          std::lock_guard<std::mutex> lock(mutex);
          Campaign& c = campaigns[i];
          // Past queued: running now, or already finished within one sweep.
          if (c.running_s < 0.0) c.running_s = now;
          if (*state == srv::CampaignState::kRunning) continue;
          if (c.done_s < 0.0) c.done_s = now;
        }
        HttpReply reply;
        try {
          reply = http(port, "GET", "/campaigns/" + std::to_string(campaigns[i].id));
        } catch (const std::exception&) {
          continue;  // read again next sweep; the deadline bounds retries
        }
        std::lock_guard<std::mutex> lock(mutex);
        Campaign& c = campaigns[i];
        c.state = json_text(reply.body, "state");
        c.events = static_cast<std::uint64_t>(json_number(reply.body, "events_executed"));
        outstanding.erase(std::find(outstanding.begin(), outstanding.end(), i));
      }
      ++sweeps;
      if (since_start() > deadline_s) return;  // the rest count as failed
      std::this_thread::sleep_until(sweep_start + kPollPeriod);
    }
  });
  sender.join();
  poller.join();
  return sweeps > 0 ? 1e3 * since_start() / static_cast<double>(sweeps) : 0.0;
}

std::vector<std::string> campaign_configs(const Options& options) {
  std::vector<std::string> configs;
  for (std::size_t j = 0; j < kConfigs; ++j) {
    configs.push_back(daily_config_text(options, options.seed + j));
  }
  return configs;
}

/// --mode capacity: kCapacityClients closed-loop clients, each submitting
/// a campaign, waiting for it to finish and submitting the next, for
/// load_seconds. Reports campaigns done per second.
void run_server_capacity(const Options& options, Result& out) {
  const std::vector<std::string> configs = campaign_configs(options);
  srv::CampaignServer server(server_config(options.workdir + "/server"));
  server.start();
  const auto start = Clock::now();
  std::mutex mutex;
  std::uint64_t done = 0, failed = 0;
  double last_done = 0.0;
  std::vector<std::thread> clients;
  for (std::size_t k = 0; k < kCapacityClients; ++k) {
    clients.emplace_back([&, k] {
      for (std::size_t n = 0;; ++n) {
        if (seconds_between(start, Clock::now()) > options.load_seconds) return;
        bool finished = false;
        try {
          const HttpReply posted = http(
              server.port(), "POST", "/campaigns",
              submission(configs, (k + n * kCapacityClients) % kConfigs, k));
          const auto id = static_cast<std::uint64_t>(json_number(posted.body, "id"));
          auto state = srv::CampaignState::kQueued;
          while (posted.status == 202 && (state == srv::CampaignState::kQueued ||
                                          state == srv::CampaignState::kRunning)) {
            std::this_thread::sleep_for(kPollPeriod);
            state = server.state_of(id).value_or(srv::CampaignState::kFailed);
          }
          finished = posted.status == 202 && state == srv::CampaignState::kDone;
        } catch (const std::exception&) {
          // A lost connection counts as a failed campaign.
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (finished) {
          ++done;
          last_done = seconds_between(start, Clock::now());
        } else {
          ++failed;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();
  out.count("attempted", done + failed);
  out.count("failed", failed);
  out.num("capacity_campaigns_per_s", last_done > 0.0 ? static_cast<double>(done) / last_done : 0.0);
}

}  // namespace

void run_server_workload(const Options& options, Result& out) {
  if (options.mode == "capacity") {
    run_server_capacity(options, out);
    return;
  }
  const std::vector<std::string> configs = campaign_configs(options);

  // One-shot references of the 8 configs, as `run-daily --events x.csv`
  // would make them; traced, they also give the per-layer numbers. Their
  // scenario constructions are set-up samples: the set-up a worker runs
  // before a campaign's first slice, timed before the load starts.
  std::vector<std::uint64_t> reference(kConfigs);
  std::vector<double> setup_s;
  Spans spans;
  Layers layers;
  bool ok = true;
  for (std::size_t j = 0; j < kConfigs; ++j) {
    std::istringstream in(configs[j]);
    const scenario::DailyConfig config = scenario::load_daily_config(in);
    if (options.traced) {
      const std::string snapshot = j == 0 ? options.workdir + "/snapshot.ckpt" : "";
      const int root = spans.begin("reference", -1, j + 1);
      std::unique_ptr<Single> single =
          traced_single_run(config, options.workdir, spans, root, layers, snapshot);
      spans.end(root);
      if (j == 0) classify_layer(single->daily->datacenter(), config.params, spans, out);
      single.reset();
      reference[j] = digest_binary_event_log(options.workdir + "/events.bin");
      if (j == 0) {
        ok &= restore_check(config, options.workdir, snapshot, true, spans, layers);
        standalone_layers(config, 1, spans, out);
      }
    } else {
      const auto t0 = Clock::now();
      Single single(config);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      single.daily->run();
      DigestStream digest;
      single.log.write_csv(digest);
      reference[j] = digest.digest();
    }
  }
  if (options.traced) setup_s = layers.construct_s;

  reset_peak_rss();
  std::vector<Campaign> campaigns = make_arrivals(options);
  srv::CampaignServer server(server_config(options.workdir + "/server"));
  server.start();
  const auto wave_start = Clock::now();
  const double poll_ms = drive(server, configs, campaigns, wave_start,
                               options.load_seconds + 30.0);
  server.drain();
  const double peak_mb = obs::peak_rss_mb();
  // More set-up samples after the drain: on a shared host one construction
  // can take half as long again as the next for a second or two at a time,
  // so the best of samples from both ends of the run is the steadier.
  for (const std::string& text : configs) {
    std::istringstream in(text);
    const scenario::DailyConfig config = scenario::load_daily_config(in);
    const auto t0 = Clock::now();
    const Single single(config);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Latency from due time to the first sweep that saw it finished; a
  // refused or unfinished campaign, or one whose event log differs from its
  // reference, fails and counts as missing the latency limit. Queue wait
  // runs from the 202 to the first sweep that saw it running; service from
  // there to done (construction, slices, checkpoints, event-log write).
  std::vector<double> latency, ack_ms, lag_ms, queue_s, service_s;
  double best_latency = 0.0, best_events_per_s = 0.0, done_latency_s = 0.0;
  std::uint64_t failed = 0, rejected = 0;
  double first_due = campaigns.front().due_s, last_done = first_due;
  for (const Campaign& c : campaigns) {
    lag_ms.push_back(1e3 * (c.sent_s - c.due_s));
    if (c.status != 202) {
      ++rejected;
    } else {
      ack_ms.push_back(1e3 * (c.acked_s - c.sent_s));
    }
    const bool good = c.status == 202 && c.state == "done" &&
                      digest_file(server.events_path(c.id)) == reference[c.config];
    if (!good) {
      ++failed;
      latency.push_back(std::max(kLatencyLimitS, seconds_between(wave_start, Clock::now())));
      continue;
    }
    const double l = c.done_s - c.due_s;
    latency.push_back(l);
    done_latency_s += l;
    queue_s.push_back(c.running_s - c.acked_s);
    service_s.push_back(c.done_s - c.running_s);
    if (best_latency == 0.0 || l < best_latency) best_latency = l;
    best_events_per_s = std::max(best_events_per_s, static_cast<double>(c.events) / l);
    last_done = std::max(last_done, c.done_s);
    if (options.traced) {
      const std::uint64_t run = 100 + c.id;
      const int id = spans.add("srv.campaign", at(wave_start, c.due_s),
                               at(wave_start, c.done_s), -1, run);
      spans.add("srv.submit", at(wave_start, c.sent_s), at(wave_start, c.acked_s), id, run);
      spans.add("srv.queue", at(wave_start, c.acked_s), at(wave_start, c.running_s), id, run);
      spans.add("srv.service", at(wave_start, c.running_s), at(wave_start, c.done_s), id, run);
    }
  }
  const double window = last_done - first_due;
  const std::uint64_t done = campaigns.size() - failed;
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  out.count("attempted", campaigns.size());
  out.count("failed", failed);
  // The end-to-end metrics, best of the run as on the daily workloads: the
  // fastest campaign, request to result (one that met no queue).
  out.num("setup_s", *std::min_element(setup_s.begin(), setup_s.end()));
  out.num("wall_s", best_latency);
  out.num("events_per_s", best_events_per_s);
  out.num("peak_rss_mb", peak_mb);
  out.num("campaign_latency_p50_s", quantile(latency, 0.5));
  out.num("campaign_latency_p90_s", quantile(latency, kTailQuantile));
  out.num("campaigns_per_s", window > 0.0 ? static_cast<double>(done) / window : 0.0);
  out.num("srv.offered_per_s", kArrivalRate);
  out.num("srv.utilization",
          window > 0.0 ? sum(service_s) / (static_cast<double>(kWorkers) * window) : 0.0);
  out.num("srv.queue_wait_share", done_latency_s > 0.0 ? sum(queue_s) / done_latency_s : 0.0);
  out.num("srv.submit_ack_p50_ms", quantile(ack_ms, 0.5));
  out.num("srv.submit_ack_p90_ms", quantile(ack_ms, kTailQuantile));
  out.num("srv.service_p50_s", quantile(service_s, 0.5));
  out.num("srv.queue_wait_p50_s", quantile(queue_s, 0.5));
  out.num("srv.queue_wait_p90_s", quantile(queue_s, kTailQuantile));
  out.count("srv.rejected", rejected);
  out.num("srv.generator_lag_p90_ms", quantile(lag_ms, kTailQuantile));
  out.num("srv.poll_resolution_ms", poll_ms);
  for (std::size_t j = 0; j < kConfigs; ++j) {
    out.digest("digest.reference" + std::to_string(j), reference[j]);
  }
  if (options.traced) {
    out.num("traced_wall_s", best_latency);
    layers.emit(out);
    out.flag("check.traced", ok);
    if (!options.trace_out.empty()) spans.write_chrome_trace(options.trace_out);
  }
}

}  // namespace ecocloud::perfbench
