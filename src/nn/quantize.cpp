#include "nn/quantize.h"

#include <cmath>
#include <stdexcept>

namespace deepsecure::nn {
namespace {

Fixed q(float v, FixedFormat fmt) {
  return Fixed::from_double(static_cast<double>(v), fmt);
}

std::vector<Fixed> quantize_vec(const VecF& x, FixedFormat fmt) {
  std::vector<Fixed> out;
  out.reserve(x.size());
  for (float v : x) out.push_back(q(v, fmt));
  return out;
}

}  // namespace

std::vector<Fixed> quantize_weights(const Network& net, FixedFormat fmt) {
  std::vector<Fixed> out;
  for (const auto& layer : net.layers()) {
    if (const auto* d = dynamic_cast<const DenseLayer*>(layer.get())) {
      const size_t in = d->in_dim();
      for (size_t o = 0; o < d->out_dim(); ++o)
        for (size_t i = 0; i < in; ++i) {
          if (!d->mask.empty() && !d->mask[o * in + i]) continue;
          out.push_back(q(d->weights()[o * in + i], fmt));
        }
      for (float b : d->biases()) out.push_back(q(b, fmt));
    } else if (const auto* c = dynamic_cast<const Conv2DLayer*>(layer.get())) {
      for (float w : c->weights()) out.push_back(q(w, fmt));
      for (float b : c->biases()) out.push_back(q(b, fmt));
    }
  }
  return out;
}

std::vector<Fixed> fixed_forward(const Network& net, const VecF& x,
                                 FixedFormat fmt) {
  std::vector<Fixed> v = quantize_vec(x, fmt);
  Shape shape = net.input_shape();
  const Fixed zero = Fixed::from_raw(0, fmt);

  for (const auto& layer : net.layers()) {
    if (const auto* d = dynamic_cast<const DenseLayer*>(layer.get())) {
      const size_t in = d->in_dim();
      std::vector<Fixed> y(d->out_dim(), zero);
      for (size_t o = 0; o < d->out_dim(); ++o) {
        int64_t acc = 0;
        for (size_t i = 0; i < in; ++i) {
          if (!d->mask.empty() && !d->mask[o * in + i]) continue;
          acc += v[i].raw() * q(d->weights()[o * in + i], fmt).raw();
        }
        y[o] = Fixed::from_product_sum(acc, fmt) + q(d->biases()[o], fmt);
      }
      v = std::move(y);
      shape = Shape{1, 1, d->out_dim()};
    } else if (const auto* c = dynamic_cast<const Conv2DLayer*>(layer.get())) {
      const Shape os = c->out_shape(shape);
      const Shape is = c->in_shape();
      const size_t k = c->kernel(), stride = c->stride();
      std::vector<Fixed> y(os.flat(), zero);
      for (size_t oc = 0; oc < os.c; ++oc)
        for (size_t oy = 0; oy < os.h; ++oy)
          for (size_t ox = 0; ox < os.w; ++ox) {
            int64_t acc = 0;
            for (size_t ic = 0; ic < is.c; ++ic)
              for (size_t ky = 0; ky < k; ++ky)
                for (size_t kx = 0; kx < k; ++kx) {
                  const Fixed& xv = v[(ic * is.h + oy * stride + ky) * is.w +
                                      ox * stride + kx];
                  const Fixed wv = q(
                      c->weights()[((oc * is.c + ic) * k + ky) * k + kx], fmt);
                  acc += xv.raw() * wv.raw();
                }
            y[(oc * os.h + oy) * os.w + ox] =
                Fixed::from_product_sum(acc, fmt) + q(c->biases()[oc], fmt);
          }
      v = std::move(y);
      shape = os;
    } else if (const auto* p = dynamic_cast<const PoolLayer*>(layer.get())) {
      const Shape os = p->out_shape(shape);
      const size_t k = p->window(), stride = p->stride();
      std::vector<Fixed> y(os.flat(), zero);
      for (size_t ch = 0; ch < shape.c; ++ch)
        for (size_t oy = 0; oy < os.h; ++oy)
          for (size_t ox = 0; ox < os.w; ++ox) {
            if (p->kind() == Pool::kMax) {
              int64_t best = INT64_MIN;
              for (size_t ky = 0; ky < k; ++ky)
                for (size_t kx = 0; kx < k; ++kx)
                  best = std::max(best,
                                  v[(ch * shape.h + oy * stride + ky) * shape.w +
                                    ox * stride + kx]
                                      .raw());
              y[(ch * os.h + oy) * os.w + ox] = Fixed::from_raw(best, fmt);
            } else {
              Fixed acc = zero;
              for (size_t ky = 0; ky < k; ++ky)
                for (size_t kx = 0; kx < k; ++kx)
                  acc = acc + v[(ch * shape.h + oy * stride + ky) * shape.w +
                                ox * stride + kx];
              y[(ch * os.h + oy) * os.w + ox] =
                  acc * q(1.0f / static_cast<float>(k * k), fmt);
            }
          }
      v = std::move(y);
      shape = os;
    } else if (const auto* a =
                   dynamic_cast<const ActivationLayer*>(layer.get())) {
      for (auto& val : v) {
        switch (a->kind()) {
          case Act::kReLU:
            val = val.raw() > 0 ? val : zero;
            break;
          case Act::kTanh:
            val = Fixed::from_double(std::tanh(val.to_double()), fmt);
            break;
          case Act::kSigmoid:
            val = Fixed::from_double(1.0 / (1.0 + std::exp(-val.to_double())),
                                     fmt);
            break;
          case Act::kSquare:
            val = val * val;
            break;
          case Act::kIdentity:
            break;
        }
      }
    } else {
      throw std::logic_error("fixed_forward: unsupported layer");
    }
  }
  return v;
}

size_t fixed_predict(const Network& net, const VecF& x, FixedFormat fmt) {
  const auto logits = fixed_forward(net, x, fmt);
  size_t best = 0;
  for (size_t i = 1; i < logits.size(); ++i)
    if (logits[i].raw() > logits[best].raw()) best = i;
  return best;
}

namespace {

// Max |pre-activation| of each parameterized layer over the calibration
// set, evaluated on the current float weights.
std::vector<double> measure_preacts(Network& net,
                                    const std::vector<VecF>& calib) {
  std::vector<double> maxima;
  for (const VecF& x : calib) {
    VecF v = x;
    size_t li = 0;
    for (const auto& layer : net.layers()) {
      v = layer->forward(v);
      const bool parameterized =
          dynamic_cast<DenseLayer*>(layer.get()) != nullptr ||
          dynamic_cast<Conv2DLayer*>(layer.get()) != nullptr;
      if (parameterized) {
        if (maxima.size() <= li) maxima.push_back(0.0);
        for (float y : v)
          maxima[li] = std::max(maxima[li], std::abs(static_cast<double>(y)));
        ++li;
      }
    }
  }
  return maxima;
}

void scale_params(Layer* layer, float w_scale, float b_scale) {
  if (auto* d = dynamic_cast<DenseLayer*>(layer)) {
    for (auto& w : d->weights()) w *= w_scale;
    for (auto& b : d->biases()) b *= b_scale;
  } else if (auto* c = dynamic_cast<Conv2DLayer*>(layer)) {
    for (auto& w : c->weights()) w *= w_scale;
    for (auto& b : c->biases()) b *= b_scale;
  }
}

}  // namespace

ScaleReport scale_for_fixed(Network& net, const std::vector<VecF>& calib,
                            FixedFormat fmt, double headroom) {
  ScaleReport report;
  const double target = fmt.max_value() * headroom;

  const std::vector<double> before = measure_preacts(net, calib);
  for (double m : before)
    report.max_preactivation_before =
        std::max(report.max_preactivation_before, m);

  // Homogeneity scan: a parameterized layer may be freely rescaled only
  // if every activation AFTER it (except the last layer, which feeds
  // argmax) is positively homogeneous.
  std::vector<Layer*> params;
  std::vector<bool> homogeneous_after;
  {
    std::vector<Layer*> raw;
    for (const auto& l : net.layers()) raw.push_back(l.get());
    for (size_t i = 0; i < raw.size(); ++i) {
      const bool parameterized =
          dynamic_cast<DenseLayer*>(raw[i]) != nullptr ||
          dynamic_cast<Conv2DLayer*>(raw[i]) != nullptr;
      if (!parameterized) continue;
      bool ok = true;
      for (size_t j = i + 1; j < raw.size(); ++j) {
        if (const auto* a = dynamic_cast<ActivationLayer*>(raw[j])) {
          if (a->kind() != Act::kReLU && a->kind() != Act::kIdentity)
            ok = false;
        }
      }
      params.push_back(raw[i]);
      homogeneous_after.push_back(ok);
    }
  }

  // Forward pass over layers, tracking the cumulative input scale c.
  double c = 1.0;
  for (size_t l = 0; l < params.size(); ++l) {
    const double scaled_preact = before[l] * c;
    double alpha = 1.0;
    if (scaled_preact > target) {
      if (homogeneous_after[l]) {
        alpha = target / scaled_preact;
      } else {
        report.fully_normalized = false;  // cannot touch this layer
      }
    }
    if (alpha != 1.0) {
      // W *= alpha; b *= alpha * c (bias must track the input scale).
      scale_params(params[l], static_cast<float>(alpha),
                   static_cast<float>(alpha * c));
      c *= alpha;
    } else if (c != 1.0) {
      // Keep biases consistent with rescaled inputs even when W is kept.
      scale_params(params[l], 1.0f, static_cast<float>(c));
      // c unchanged: outputs now carry scale c.
    }
    report.layer_scale.push_back(alpha);
  }

  const std::vector<double> after = measure_preacts(net, calib);
  for (double m : after)
    report.max_preactivation_after =
        std::max(report.max_preactivation_after, m);
  if (report.max_preactivation_after > fmt.max_value())
    report.fully_normalized = false;
  return report;
}

float fixed_accuracy(const Network& net, const std::vector<VecF>& xs,
                     const std::vector<size_t>& ys, FixedFormat fmt) {
  if (xs.empty()) return 0.0f;
  size_t correct = 0;
  for (size_t i = 0; i < xs.size(); ++i)
    correct += fixed_predict(net, xs[i], fmt) == ys[i] ? 1 : 0;
  return static_cast<float>(correct) / static_cast<float>(xs.size());
}

}  // namespace deepsecure::nn
