"""Bottom-up instance segmentation of thin, mutually crossing strands.

A small convolutional network produces a foreground probability map and a
per-pixel associative embedding; mean-shift clustering of the
coordinate-augmented embeddings separates the strands, and a similarity
test on cluster-center distances assigns crossing pixels to every strand
involved.
"""

from .clustering import ClusterModel, MeanShiftConfig, augment_coordinates, mean_shift
from .config import ConfigError, RunConfig, load_run_config, run_config_from_dict
from .formats import read_pgm, read_tensors, write_pgm, write_ppm, write_tensors
from .grids import AugmentParams, augment, rotate_grid, upsample_bilinear
from .intersections import (ResolveConfig, build_instances, min_similarity,
                            resolve_pixel, similarity_scores)
from .metrics import (THRESHOLDS, MetricReport, connected_components,
                      evaluate_dataset, greedy_match_counts, instance_ap_ar,
                      mask_dice, mask_iou)
from .network import (LossConfig, discriminative_loss, forward, init_params,
                      total_loss_and_grad)
from .optim import DivergenceError, OptimConfig, adamw_step, init_adam_state
from .pipeline import (Diagnostics, PipelineConfig, infer, infer_cc_baseline,
                       instances_from_maps)
from .render import MULTI_COLOR, PALETTE, render_overlay
from .synth import (GenerationError, InstanceSet, PolylineAnnotation, Scene,
                    SceneSpec, annotations_to_document, annotations_to_instances,
                    generate_scene, make_training_labels, rasterize_polyline,
                    scene_seeds)
from .training import TrainResult, downsample_labels, train

__version__ = "0.1.0"
