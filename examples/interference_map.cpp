// Renders an ASCII SINR map around a transmitter: where a message can be
// decoded as interferers are added. Illustrates the model quantities R_max,
// R_T (the paper's transmission range) and the additive nature of SINR
// interference that distinguishes the physical model from the graph model.
//
//   ./examples/interference_map [--interferers=3] [--beta=1.5] [--alpha=4.0]
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "sinr/medium_field.h"
#include "sinr/params.h"
#include "sinr/reception.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto interferers =
      static_cast<int>(cli.get_int_at_least("interferers", 3, 0));
  sinr::SinrParams phys;
  phys.alpha = cli.get_double("alpha", 4.0);
  phys.beta = cli.get_double("beta", 1.5);
  cli.reject_unknown();

  phys = phys.with_r_t(1.0);
  if (const std::string problem = phys.violation(); !problem.empty()) {
    cli.usage_error(problem);
  }
  std::printf("%s\n", phys.to_string().c_str());
  std::printf("R_max=%.3f R_T=%.3f (paper: R_T=(P/2Nbeta)^(1/alpha))\n\n",
              phys.r_max(), phys.r_t());

  // Sender at the origin; interferers on a ring of radius 2.5 R_T.
  std::vector<sinr::Transmitter> txs{{{0.0, 0.0}}};
  for (int k = 0; k < interferers; ++k) {
    const double angle = 2.0 * M_PI * k / std::max(interferers, 1);
    txs.push_back({{2.5 * std::cos(angle), 2.5 * std::sin(angle)}});
  }

  std::printf("map: 'S' sender, 'I' interferer, '#' decodable from S, "
              "'+' SINR>=beta but out of range, '.' undecodable\n\n");
  const double extent = 3.2;
  const int rows = 33;
  const int cols = 65;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double x = -extent + 2.0 * extent * c / (cols - 1);
      const double y = extent - 2.0 * extent * r / (rows - 1);
      const geometry::Point p{x, y};
      char ch = '.';
      bool is_tx = false;
      for (std::size_t i = 0; i < txs.size(); ++i) {
        if (geometry::distance(p, txs[i].position) < 0.12) {
          ch = i == 0 ? 'S' : 'I';
          is_tx = true;
          break;
        }
      }
      if (!is_tx) {
        if (sinr::decodes(phys, p, txs, 0)) {
          ch = '#';
        } else if (sinr::sinr_at(phys, p, txs, 0) >= phys.beta) {
          ch = '+';  // passes SINR but fails the delta <= R_T range gate
        }
      }
      std::putchar(ch);
    }
    std::putchar('\n');
  }

  // Quantify the shrinkage of the decodable area with interferer count.
  std::printf("\ndecodable fraction of the R_T disc around S:\n");
  for (int k = 0; k <= interferers; ++k) {
    std::vector<sinr::Transmitter> subset(txs.begin(), txs.begin() + 1 + k);
    int covered = 0;
    int total = 0;
    for (double x = -1.0; x <= 1.0; x += 0.02) {
      for (double y = -1.0; y <= 1.0; y += 0.02) {
        if (x * x + y * y > 1.0 || (x == 0.0 && y == 0.0)) continue;
        ++total;
        covered += sinr::decodes(phys, {x, y}, subset, 0);
      }
    }
    std::printf("  %d interferer(s): %5.1f%%\n", k,
                100.0 * covered / std::max(total, 1));
  }
  return 0;
}
